package abusedb

import (
	"fmt"
	"testing"
)

func TestExplicitHashLabels(t *testing.T) {
	db := New()
	db.AddHash("abc", LabelMirai)
	if l, ok := db.LookupHash("abc"); !ok || l != LabelMirai {
		t.Errorf("LookupHash = %q, %v", l, ok)
	}
}

func TestProbabilisticCoverageNearFivePercent(t *testing.T) {
	db := New()
	labeled := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if _, ok := db.LookupHash(fmt.Sprintf("hash-%d", i)); ok {
			labeled++
		}
	}
	frac := float64(labeled) / n
	// The paper resolves ~5% of hashes (700 of 16,257 is 4.3%).
	if frac < 0.035 || frac > 0.065 {
		t.Errorf("label coverage = %.3f, want ~0.05", frac)
	}
}

func TestLookupDeterministic(t *testing.T) {
	db := New()
	for i := 0; i < 100; i++ {
		h := fmt.Sprintf("h%d", i)
		l1, ok1 := db.LookupHash(h)
		l2, ok2 := db.LookupHash(h)
		if l1 != l2 || ok1 != ok2 {
			t.Fatalf("lookup of %q not deterministic", h)
		}
	}
}

func TestZeroFractionDisablesFallback(t *testing.T) {
	db := New()
	db.LabelFraction = 0
	for i := 0; i < 2000; i++ {
		if _, ok := db.LookupHash(fmt.Sprintf("x%d", i)); ok {
			t.Fatal("fallback labeling should be disabled")
		}
	}
	// Explicit labels still work.
	db.AddHash("y", LabelGafgyt)
	if _, ok := db.LookupHash("y"); !ok {
		t.Error("explicit label lost")
	}
}

func TestIPFeeds(t *testing.T) {
	db := New()
	if db.IPReported("1.2.3.4") {
		t.Error("fresh DB should report nothing")
	}
	db.ReportIP("1.2.3.4")
	if !db.IPReported("1.2.3.4") {
		t.Error("reported IP lost")
	}

	db.AddKillnetIP("5.6.7.8")
	if !db.InKillnetList("5.6.7.8") || db.InKillnetList("9.9.9.9") {
		t.Error("Killnet membership wrong")
	}
	if n := db.KillnetOverlap([]string{"5.6.7.8", "9.9.9.9", "5.6.7.8"}); n != 2 {
		t.Errorf("KillnetOverlap = %d, want 2 (per-occurrence)", n)
	}
}

func TestCompromisedKeyReport(t *testing.T) {
	db := New()
	db.RecordCompromisedKey("keyA", 13368)
	db.RecordCompromisedKey("keyB", 12)
	if n := db.CompromisedHosts("keyA"); n != 13368 {
		t.Errorf("hosts = %d", n)
	}
	k, n := db.MostPrevalentKey()
	if k != "keyA" || n != 13368 {
		t.Errorf("most prevalent = %q (%d)", k, n)
	}
	if db.CompromisedHosts("unknown") != 0 {
		t.Error("unknown key should report 0")
	}
}

func TestFamiliesComplete(t *testing.T) {
	fams := Families()
	if len(fams) != 6 {
		t.Errorf("families = %v", fams)
	}
	seen := map[string]bool{}
	for _, f := range fams {
		if seen[f] {
			t.Errorf("duplicate family %q", f)
		}
		seen[f] = true
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := New()
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 500; i++ {
				db.AddHash(fmt.Sprintf("h-%d-%d", g, i), LabelMirai)
				db.LookupHash(fmt.Sprintf("h-%d-%d", g, i))
				db.ReportIP(fmt.Sprintf("10.0.%d.%d", g, i%250))
				db.IPReported("10.0.0.1")
			}
			done <- true
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
