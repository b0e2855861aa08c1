package botnet

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"honeynet/internal/asdb"
)

func testEnv() *Env {
	return NewEnv(asdb.NewRegistry(1, 200))
}

func botByName(t *testing.T, name string) *Bot {
	t.Helper()
	for _, b := range Catalog() {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("bot %q not in catalog", name)
	return nil
}

func TestScheduleSemantics(t *testing.T) {
	s := Schedule{
		{From: D(2022, 1, 1), To: D(2022, 2, 1), Rate: 100},
		{From: D(2022, 1, 15), To: D(2022, 3, 1), Rate: 50},
	}
	if got := s.Rate(D(2021, 12, 31)); got != 0 {
		t.Errorf("before window: %v", got)
	}
	if got := s.Rate(D(2022, 1, 10)); got != 100 {
		t.Errorf("single window: %v", got)
	}
	if got := s.Rate(D(2022, 1, 20)); got != 150 {
		t.Errorf("overlap adds: %v", got)
	}
	if got := s.Rate(D(2022, 2, 15)); got != 50 {
		t.Errorf("tail window: %v", got)
	}
	if got := s.Rate(D(2022, 3, 1)); got != 0 {
		t.Errorf("exclusive end: %v", got)
	}
}

func TestWavesAlternate(t *testing.T) {
	s := Waves(D(2022, 1, 1), D(2022, 3, 1), 10, 10, 100)
	if got := s.Rate(D(2022, 1, 5)); got != 100 {
		t.Errorf("on-phase: %v", got)
	}
	if got := s.Rate(D(2022, 1, 15)); got != 0 {
		t.Errorf("off-phase: %v", got)
	}
	if got := s.Rate(D(2022, 1, 25)); got != 100 {
		t.Errorf("second wave: %v", got)
	}
}

func TestMdrfckrDropWindows(t *testing.T) {
	if !InMdrfckrDrop(D(2022, 10, 12)) {
		t.Error("Oct 2022 Sandworm window should be a drop")
	}
	if InMdrfckrDrop(D(2022, 9, 15)) {
		t.Error("Sep 2022 is not a drop window")
	}
	b := botByName(t, "mdrfckr")
	normal := EffectiveRate(b, D(2022, 9, 15))
	dropped := EffectiveRate(b, D(2022, 10, 12))
	if dropped >= normal/100 {
		t.Errorf("drop window rate %v should be orders of magnitude below %v", dropped, normal)
	}
}

func TestMdrfckrGeneratesPersistenceAndBase64InDrops(t *testing.T) {
	env := testEnv()
	b := botByName(t, "mdrfckr")
	rng := rand.New(rand.NewSource(1))

	atk := b.Gen(b, env, rng, D(2022, 9, 15))
	joined := strings.Join(atk.Commands, "\n")
	if !strings.Contains(joined, "mdrfckr") {
		t.Error("mdrfckr key missing")
	}
	if !strings.Contains(joined, "chpasswd") {
		t.Error("root password change missing from initial variant")
	}
	if strings.Contains(joined, "base64") {
		t.Error("base64 scripts must only appear in drop windows")
	}

	atk = b.Gen(b, env, rng, D(2022, 10, 12))
	if !strings.Contains(strings.Join(atk.Commands, "\n"), "base64 -d") {
		t.Error("drop-window sessions must carry base64 scripts")
	}
}

func TestVariantOmitsPasswordChange(t *testing.T) {
	env := testEnv()
	b := botByName(t, "mdrfckr_variant")
	atk := b.Gen(b, env, rand.New(rand.NewSource(1)), D(2023, 1, 10))
	joined := strings.Join(atk.Commands, "\n")
	for _, want := range []string{"auth.sh", "secure.sh", "hosts.deny", "mdrfckr"} {
		if !strings.Contains(joined, want) {
			t.Errorf("variant missing %q", want)
		}
	}
	if strings.Contains(joined, "chpasswd") {
		t.Error("variant must not change the root password")
	}
}

func TestSharedPoolOverlap(t *testing.T) {
	env := testEnv()
	mdr := botByName(t, "mdrfckr")
	twin := botByName(t, "login_3245gs5662d34")
	day := D(2023, 2, 1)
	rng := rand.New(rand.NewSource(3))

	// Saturate the campaign's daily-active window, as the paper's
	// full-period IP sets do.
	mdrIPs := map[string]bool{}
	for i := 0; i < 60000; i++ {
		mdrIPs[mdr.ClientIP(env, rng, day)] = true
	}
	overlap, total := 0, 0
	for i := 0; i < 800; i++ {
		ip := twin.ClientIP(env, rng, day)
		total++
		if mdrIPs[ip] {
			overlap++
		}
	}
	// The twin draws from a subset window of the same pool: overlap must
	// be very high (paper: 99.4%).
	if frac := float64(overlap) / float64(total); frac < 0.9 {
		t.Errorf("IP overlap = %.2f, want ~1.0", frac)
	}

	// A pool-distinct bot must NOT overlap significantly.
	other := botByName(t, "echo_OK")
	overlap = 0
	for i := 0; i < 800; i++ {
		if mdrIPs[other.ClientIP(env, rng, day)] {
			overlap++
		}
	}
	if frac := float64(overlap) / 800; frac > 0.2 {
		t.Errorf("unrelated bot overlap = %.2f, want low", frac)
	}
}

func TestClientIPStability(t *testing.T) {
	env := testEnv()
	b := botByName(t, "echo_OK")
	day := D(2022, 5, 1)
	// Same member index must map to the same IP across draws: pool
	// identity is stable.
	r1 := rand.New(rand.NewSource(5))
	r2 := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		if b.ClientIP(env, r1, day) != b.ClientIP(env, r2, day) {
			t.Fatal("ClientIP not deterministic for identical RNG streams")
		}
	}
}

func TestCurlMaxredFourIPs(t *testing.T) {
	env := testEnv()
	b := botByName(t, "curl_maxred")
	rng := rand.New(rand.NewSource(1))
	ips := map[string]bool{}
	day := D(2024, 2, 1)
	for i := 0; i < 500; i++ {
		ips[b.ClientIP(env, rng, day)] = true
	}
	if len(ips) > 4 {
		t.Errorf("curl_maxred uses %d IPs, want <= 4", len(ips))
	}
	atk := b.Gen(b, env, rng, day)
	n := 0
	for _, c := range atk.Commands {
		if strings.Contains(c, "curl ") && strings.Contains(c, "max-redirs") {
			n++
		}
	}
	if n < 80 || n > 120 {
		t.Errorf("curl commands per session = %d, want ~100", n)
	}
}

func TestStorageRotatorLifetimes(t *testing.T) {
	reg := asdb.NewRegistry(2, 50)
	rot := NewStorageRotator(reg, "Mirai", 2)
	rng := rand.New(rand.NewSource(4))

	// Over a year of daily use, IPs churn but some return.
	perDay := map[string]map[time.Time]bool{}
	start := D(2022, 1, 1)
	for d := 0; d < 365; d++ {
		day := start.AddDate(0, 0, d)
		for i := 0; i < 3; i++ {
			ip := rot.IP(rng, day)
			if perDay[ip] == nil {
				perDay[ip] = map[time.Time]bool{}
			}
			perDay[ip][day] = true
		}
	}
	if len(perDay) < 30 {
		t.Errorf("storage IPs over a year = %d, want substantial churn", len(perDay))
	}
	// Half-ish of IPs should live a single day (the Figure 9 shape).
	oneDay := 0
	for _, days := range perDay {
		if len(days) == 1 {
			oneDay++
		}
	}
	if frac := float64(oneDay) / float64(len(perDay)); frac < 0.25 {
		t.Errorf("single-day IP share = %.2f, want large", frac)
	}
}

func TestRotatorURIParsableAndOnActiveIP(t *testing.T) {
	reg := asdb.NewRegistry(3, 50)
	rot := NewStorageRotator(reg, "Gafgyt", 2)
	rng := rand.New(rand.NewSource(6))
	day := D(2022, 6, 1)
	uri := rot.URI(rng, day, "bins.sh")
	if !strings.HasPrefix(uri, "http://10.") || !strings.Contains(uri, "/bins.sh?v=") {
		t.Errorf("URI = %q", uri)
	}
}

func TestCatalogSanity(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Catalog() {
		if b.Name == "" || b.Gen == nil {
			t.Fatalf("malformed bot %+v", b)
		}
		if seen[b.Name] {
			t.Errorf("duplicate bot %q", b.Name)
		}
		seen[b.Name] = true
		if b.Schedule == nil && b.Name != "scanner" {
			t.Errorf("bot %q has no schedule", b.Name)
		}
		// Every bot must be active at least one day in the window.
		active := false
		for d := WindowStart; d.Before(WindowEnd); d = d.AddDate(0, 0, 7) {
			if EffectiveRate(b, d) > 0 {
				active = true
				break
			}
		}
		if !active {
			t.Errorf("bot %q never active", b.Name)
		}
	}
	if len(seen) < 30 {
		t.Errorf("catalog has %d bots, expected a full population", len(seen))
	}
}

func TestAttackWellFormed(t *testing.T) {
	env := testEnv()
	rng := rand.New(rand.NewSource(8))
	for _, b := range Catalog() {
		// Find an active day for the bot.
		var day time.Time
		for d := WindowStart; d.Before(WindowEnd); d = d.AddDate(0, 0, 1) {
			if EffectiveRate(b, d) > 0 {
				day = d
				break
			}
		}
		atk := b.Gen(b, env, rng, day)
		if atk.NoLogin {
			continue
		}
		if atk.User == "" {
			t.Errorf("bot %q generated empty user", b.Name)
		}
		for _, c := range atk.Commands {
			if strings.TrimSpace(c) == "" {
				t.Errorf("bot %q generated empty command", b.Name)
			}
		}
	}
}

func TestMdrfckrKeyHashStable(t *testing.T) {
	if MdrfckrKeyHash() != MdrfckrKeyHash() {
		t.Error("key hash must be stable")
	}
	if len(MdrfckrKeyHash()) != 64 {
		t.Errorf("key hash length = %d", len(MdrfckrKeyHash()))
	}
}
