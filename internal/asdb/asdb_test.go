package asdb

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestClientPoolComposition(t *testing.T) {
	reg := NewRegistry(1, 2000)
	counts := map[Type]int{}
	for _, as := range reg.Clients() {
		counts[as.Type]++
	}
	total := len(reg.Clients())
	if total != 2000 {
		t.Fatalf("clients = %d", total)
	}
	if frac := float64(counts[TypeISPNSP]) / float64(total); frac < 0.65 || frac > 0.80 {
		t.Errorf("ISP/NSP client share = %.2f, want ~0.72", frac)
	}
}

func TestIPLookupRoundTrip(t *testing.T) {
	reg := NewRegistry(2, 100)
	rng := rand.New(rand.NewSource(1))
	at := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 50; i++ {
		as := reg.Clients()[rng.Intn(len(reg.Clients()))]
		ip := reg.IPFor(as, rng.Intn(4000))
		got, ok := reg.Lookup(ip, at)
		if !ok {
			t.Fatalf("Lookup(%s) failed", ip)
		}
		if got.ASN != as.ASN {
			t.Errorf("Lookup(%s) = AS%d, want AS%d", ip, got.ASN, as.ASN)
		}
	}
}

func TestLookupRejectsForeignIPs(t *testing.T) {
	reg := NewRegistry(3, 10)
	at := time.Now()
	for _, ip := range []string{"8.8.8.8", "not-an-ip", "2001:db8::1", "9.255.255.255"} {
		if _, ok := reg.Lookup(ip, at); ok {
			t.Errorf("Lookup(%s) should fail", ip)
		}
	}
}

func TestHistoricLookupRespectsRegistration(t *testing.T) {
	reg := NewRegistry(4, 10)
	rng := rand.New(rand.NewSource(1))
	// Sample a storage AS registered very recently relative to `at`.
	at := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	var young *AS
	for i := 0; i < 200; i++ {
		as := reg.SampleStorageAS(rng, at)
		if as.AgeAt(at) < 365*24*time.Hour {
			young = as
			break
		}
	}
	if young == nil {
		t.Fatal("no young AS sampled in 200 draws (should be ~35%)")
	}
	ip := reg.IPFor(young, 1)
	// Before its registration, the prefix was not announced.
	if _, ok := reg.Lookup(ip, young.Registered.AddDate(-1, 0, 0)); ok {
		t.Error("historic lookup should fail before AS registration")
	}
	if _, ok := reg.Lookup(ip, at); !ok {
		t.Error("lookup at sample time should succeed")
	}
}

func TestStorageAgeDistribution(t *testing.T) {
	reg := NewRegistry(5, 10)
	rng := rand.New(rand.NewSource(9))
	at := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	const year = 365 * 24 * time.Hour
	n, under1, under5 := 5000, 0, 0
	for i := 0; i < n; i++ {
		as := reg.SampleStorageAS(rng, at)
		age := as.AgeAt(at)
		if age < year {
			under1++
		}
		if age < 5*year {
			under5++
		}
	}
	// Figure 8(a): >35% younger than a year, >70% younger than five.
	if frac := float64(under1) / float64(n); frac < 0.25 || frac > 0.50 {
		t.Errorf("age<1y share = %.2f, want ~0.35", frac)
	}
	if frac := float64(under5) / float64(n); frac < 0.60 || frac > 0.85 {
		t.Errorf("age<5y share = %.2f, want ~0.70", frac)
	}
}

func TestStorageSizeDistribution(t *testing.T) {
	reg := NewRegistry(6, 10)
	rng := rand.New(rand.NewSource(10))
	at := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	seen := map[int]*AS{}
	for i := 0; i < 3000; i++ {
		as := reg.SampleStorageAS(rng, at)
		seen[as.ASN] = as
	}
	one, under50, total := 0, 0, 0
	for _, as := range seen {
		total++
		if as.Prefixes24 == 1 {
			one++
		}
		if as.Prefixes24 < 50 {
			under50++
		}
	}
	// Figure 8(b): ~20% single /24, ~50% below 50.
	if frac := float64(one) / float64(total); frac < 0.10 || frac > 0.32 {
		t.Errorf("single-/24 share = %.2f, want ~0.20", frac)
	}
	if frac := float64(under50) / float64(total); frac < 0.35 || frac > 0.65 {
		t.Errorf("<50-/24 share = %.2f, want ~0.50", frac)
	}
}

func TestStorageASCapAt388(t *testing.T) {
	reg := NewRegistry(7, 10)
	if n := len(reg.storage); n != 388 {
		t.Fatalf("storage pool = %d ASes, want the paper's 388", n)
	}
	pool := map[*AS]bool{}
	for _, as := range reg.storage {
		pool[as] = true
	}
	rng := rand.New(rand.NewSource(11))
	seen := map[*AS]bool{}
	// Spread draws over time so many quarters are requested.
	for i := 0; i < 20000; i++ {
		at := time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, i%1000)
		as := reg.SampleStorageAS(rng, at)
		if !pool[as] {
			t.Fatalf("SampleStorageAS returned AS%d, which is not in the storage pool", as.ASN)
		}
		if as.Registered.After(at) {
			t.Fatalf("AS%d registered %v, after the %v draw", as.ASN, as.Registered, at)
		}
		seen[as] = true
	}
	if n := len(seen); n < 300 {
		t.Errorf("distinct storage ASes drawn = %d, expected near the 388 under heavy sampling", n)
	}
}

func TestStorageTypeComposition(t *testing.T) {
	reg := NewRegistry(8, 10)
	rng := rand.New(rand.NewSource(12))
	at := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	seen := map[int]*AS{}
	for i := 0; i < 4000; i++ {
		as := reg.SampleStorageAS(rng, at.AddDate(0, 0, i%500))
		seen[as.ASN] = as
	}
	hosting, total := 0, 0
	for _, as := range seen {
		total++
		if as.Type == TypeHosting {
			hosting++
		}
	}
	// Section 7: 358 of 388 are hosting-like.
	if frac := float64(hosting) / float64(total); frac < 0.70 {
		t.Errorf("hosting share = %.2f, want dominant", frac)
	}
}

func TestTypeStrings(t *testing.T) {
	want := map[Type]string{TypeCDN: "CDN", TypeHosting: "Hosting", TypeISPNSP: "ISP/NSP", TypeOther: "Other"}
	for typ, s := range want {
		if typ.String() != s {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), s)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := NewRegistry(42, 50)
	b := NewRegistry(42, 50)
	if len(a.all) != 50+388 || len(b.all) != len(a.all) {
		t.Fatalf("registries hold %d and %d ASes, want %d", len(a.all), len(b.all), 50+388)
	}
	for i := range a.all {
		if x, y := *a.all[i], *b.all[i]; x != y {
			t.Fatalf("registries diverge at AS %d: %+v vs %+v", i, x, y)
		}
	}
	// The clients are drawn first, so a registry with more clients starts
	// with the same ones.
	c := NewRegistry(42, 60)
	for i := range a.Clients() {
		if *a.Clients()[i] != *c.Clients()[i] {
			t.Fatalf("client %d depends on the client count", i)
		}
	}
}

// TestConcurrentReads: a registry takes no lock, so draws and lookups
// from many goroutines at once must not race (run under -race).
func TestConcurrentReads(t *testing.T) {
	reg := NewRegistry(9, 20)
	at := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				as := reg.SampleStorageAS(rng, at)
				if _, ok := reg.Lookup(reg.IPFor(as, i), at); !ok {
					t.Errorf("AS%d drawn at %v does not resolve then", as.ASN, at)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
