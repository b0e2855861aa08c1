package simulate

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"honeynet/internal/botnet"
	"honeynet/internal/session"
)

// smallRun simulates a few months at a coarse scale for fast tests.
func smallRun(t *testing.T, months int, scale float64, seed int64) *Result {
	t.Helper()
	res, err := Run(Config{
		Scale: scale,
		Seed:  seed,
		End:   botnet.WindowStart.AddDate(0, months, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSessionMixMatchesPaper(t *testing.T) {
	res, err := Run(Config{Scale: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ssh int
	var byKind [4]int
	for _, r := range res.Store.All() {
		if r.Protocol == session.ProtoSSH {
			ssh++
			byKind[r.Kind()]++
		}
	}
	if total := res.Store.Len(); total < 50_000 {
		t.Fatalf("total = %d, too small to judge", total)
	}
	frac := func(k session.Kind) float64 {
		return float64(byKind[k]) / float64(ssh)
	}
	// Paper: scanning 45M, scouting 258M, intrusion 80M, cmdexec 163M of
	// the 546M SSH sessions.
	checks := []struct {
		kind     session.Kind
		lo, hi   float64
		paperVal float64
	}{
		{session.Scanning, 0.05, 0.12, 0.082},
		{session.Scouting, 0.38, 0.55, 0.472},
		{session.Intrusion, 0.10, 0.20, 0.147},
		{session.CommandExec, 0.24, 0.40, 0.299},
	}
	for _, c := range checks {
		if f := frac(c.kind); f < c.lo || f > c.hi {
			t.Errorf("%v share = %.3f, want near %.3f", c.kind, f, c.paperVal)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := smallRun(t, 2, 5000, 42)
	b := smallRun(t, 2, 5000, 42)
	if a.Sessions != b.Sessions {
		t.Fatalf("session counts differ: %d vs %d", a.Sessions, b.Sessions)
	}
	ra, rb := a.Store.All(), b.Store.All()
	for i := range ra {
		if ra[i].ClientIP != rb[i].ClientIP || ra[i].CommandText() != rb[i].CommandText() {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestWorkerInvariance: the generated dataset must be identical — every
// field of every record, in order — for any worker count, and the
// threat-intel side effects must match too.
func TestWorkerInvariance(t *testing.T) {
	run := func(workers int) *Result {
		t.Helper()
		res, err := Run(Config{
			Scale:   3000,
			Seed:    42,
			End:     botnet.WindowStart.AddDate(0, 3, 0),
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if got.Sessions != ref.Sessions {
			t.Fatalf("workers=%d: %d sessions, want %d", workers, got.Sessions, ref.Sessions)
		}
		ra, rb := ref.Store.All(), got.Store.All()
		for i := range ra {
			if !reflect.DeepEqual(ra[i], rb[i]) {
				t.Fatalf("workers=%d: record %d differs:\n  serial:   %+v\n  parallel: %+v",
					workers, i, ra[i], rb[i])
			}
		}
		// Threat-intel registration happens in the serial merge, so the
		// abuse DB must end up identical as well.
		for _, r := range ra {
			for _, h := range r.DroppedHashes {
				la, oka := ref.AbuseDB.LookupHash(h)
				lb, okb := got.AbuseDB.LookupHash(h)
				if oka != okb || la != lb {
					t.Fatalf("workers=%d: hash %q label (%q,%v) vs (%q,%v)", workers, h, la, oka, lb, okb)
				}
			}
			for _, d := range r.Downloads {
				if d.SourceIP != "" && ref.AbuseDB.IPReported(d.SourceIP) != got.AbuseDB.IPReported(d.SourceIP) {
					t.Fatalf("workers=%d: IP %q report status differs", workers, d.SourceIP)
				}
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := smallRun(t, 1, 5000, 1)
	b := smallRun(t, 1, 5000, 2)
	if a.Sessions == b.Sessions {
		// Counts may coincide; compare content.
		same := true
		ra, rb := a.Store.All(), b.Store.All()
		for i := 0; i < len(ra) && i < len(rb); i++ {
			if ra[i].ClientIP != rb[i].ClientIP {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestMaintenanceOutage(t *testing.T) {
	res, err := Run(Config{
		Scale: 2000,
		Seed:  3,
		Start: botnet.D(2023, 10, 1),
		End:   botnet.D(2023, 10, 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Store.All() {
		d := r.Start.UTC()
		if d.Year() == 2023 && d.Month() == 10 && (d.Day() == 8 || d.Day() == 9) {
			t.Fatalf("session recorded during the Oct 8-9 2023 outage: %v", d)
		}
	}
	// The surrounding days must have sessions.
	seen7, seen10 := false, false
	for _, r := range res.Store.All() {
		switch r.Start.UTC().Day() {
		case 7:
			seen7 = true
		case 10:
			seen10 = true
		}
	}
	if !seen7 || !seen10 {
		t.Error("days around the outage should have sessions")
	}
}

// TestStorageFlowsResolve: every download whose storage IP lies in the
// registry's address space resolves, in the simulation's own registry,
// at the start of the session that made it. A storage AS registered
// after the session that drew it would not.
func TestStorageFlowsResolve(t *testing.T) {
	res, err := Run(Config{Scale: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	space := 0
	for _, r := range res.Store.All() {
		for _, d := range r.Downloads {
			if !strings.HasPrefix(d.SourceIP, "10.") {
				continue
			}
			space++
			if _, ok := res.Registry.Lookup(d.SourceIP, r.Start); !ok {
				t.Errorf("session %d: storage IP %s resolves to no AS at %v", r.ID, d.SourceIP, r.Start)
			}
		}
	}
	if space < 500 {
		t.Fatalf("%d downloads from registry storage IPs, want several hundred", space)
	}
}

func TestStreamingSinkAndDiscard(t *testing.T) {
	n := 0
	res, err := Run(Config{
		Scale: 5000, Seed: 4,
		End:     botnet.WindowStart.AddDate(0, 1, 0),
		Discard: true,
		Sink:    func(r *session.Record) { n++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Len() != 0 {
		t.Errorf("Discard run stored %d records", res.Store.Len())
	}
	if n == 0 || n != res.Sessions {
		t.Errorf("sink saw %d, result says %d", n, res.Sessions)
	}
}

func TestRecordsAreWellFormed(t *testing.T) {
	res := smallRun(t, 2, 2000, 5)
	ids := map[uint64]bool{}
	for _, r := range res.Store.All() {
		if r.ID == 0 || ids[r.ID] {
			t.Fatalf("bad or duplicate ID %d", r.ID)
		}
		ids[r.ID] = true
		if r.ClientIP == "" && r.Kind() != session.Scanning {
			t.Errorf("record %d missing client IP", r.ID)
		}
		if r.HoneypotID == "" {
			t.Errorf("record %d missing honeypot", r.ID)
		}
		if !r.End.After(r.Start) && r.Kind() != session.Scanning {
			t.Errorf("record %d has end %v <= start %v", r.ID, r.End, r.Start)
		}
		if r.Start.Before(botnet.WindowStart) {
			t.Errorf("record %d before window", r.ID)
		}
		// CommandExec sessions must carry command text; downloads carry
		// source IPs inside the registry space.
		if r.Kind() == session.CommandExec && r.CommandText() == "" {
			t.Errorf("record %d: cmdexec without commands", r.ID)
		}
		for _, d := range r.Downloads {
			if d.URI == "" {
				t.Errorf("record %d: download without URI", r.ID)
			}
		}
	}
}

func TestFetcherSemantics(t *testing.T) {
	f := Fetcher()
	content, err := f("http://10.0.0.1/bins.sh?v=1-0")
	if err != nil || len(content) == 0 {
		t.Fatalf("fetch: %v", err)
	}
	// Deterministic per URI.
	again, _ := f("http://10.0.0.1/bins.sh?v=1-0")
	if string(content) != string(again) {
		t.Error("fetch not deterministic")
	}
	other, _ := f("http://10.0.0.1/bins.sh?v=2-0")
	if string(content) == string(other) {
		t.Error("different URIs must yield different payloads")
	}
	if _, err := f("http://10.0.0.1/dead/bins.sh"); err == nil {
		t.Error("dead path must fail")
	}
}

func TestEmptyWindowRejected(t *testing.T) {
	_, err := Run(Config{Start: botnet.D(2022, 2, 1), End: botnet.D(2022, 1, 1)})
	if err == nil {
		t.Error("inverted window must fail")
	}
}

func TestHoneypotSpread(t *testing.T) {
	res := smallRun(t, 2, 2000, 6)
	hps := map[string]bool{}
	for _, r := range res.Store.All() {
		hps[r.HoneypotID] = true
	}
	if len(hps) < 200 {
		t.Errorf("sessions spread over %d honeypots, want ~221", len(hps))
	}
}

func TestTimeOrderWithinDayGranularity(t *testing.T) {
	res := smallRun(t, 1, 5000, 7)
	// Sessions of a given bot day are uniformly spread within the day.
	var hours [24]int
	for _, r := range res.Store.All() {
		hours[r.Start.Hour()]++
	}
	zero := 0
	for _, h := range hours {
		if h == 0 {
			zero++
		}
	}
	if zero > 2 {
		t.Errorf("hours with no sessions: %d — timestamps not spread", zero)
	}
	_ = time.Hour
}
