package collector

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"honeynet/internal/session"
)

func rec(id uint64, month time.Month, kind session.Kind) *session.Record {
	r := &session.Record{
		ID:       id,
		Start:    time.Date(2022, month, 10, 12, 0, 0, 0, time.UTC),
		ClientIP: fmt.Sprintf("10.0.0.%d", id%250),
		Protocol: session.ProtoSSH,
	}
	switch kind {
	case session.Scouting:
		r.Logins = []session.LoginAttempt{{Username: "root", Password: "root"}}
	case session.Intrusion:
		r.Logins = []session.LoginAttempt{{Username: "root", Password: "x", Success: true}}
	case session.CommandExec:
		r.Logins = []session.LoginAttempt{{Username: "root", Password: "x", Success: true}}
		r.Commands = []session.Command{{Raw: "uname"}}
	}
	return r
}

func TestStoreAddAndStats(t *testing.T) {
	s := NewStore()
	s.Add(rec(1, 1, session.Scanning))
	s.Add(rec(2, 1, session.Scouting))
	s.Add(rec(3, 2, session.Intrusion))
	s.Add(rec(4, 2, session.CommandExec))
	s.Add(rec(5, 3, session.CommandExec))

	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	st := s.StatsN(1)
	if st.Total != 5 || st.SSH != 5 {
		t.Errorf("stats = %+v", st)
	}
	if st.SSHByKind[session.CommandExec] != 2 || st.SSHByKind[session.Scanning] != 1 {
		t.Errorf("kind counts = %v", st.SSHByKind)
	}
	if st.UniqueIPs != 5 {
		t.Errorf("unique IPs = %d", st.UniqueIPs)
	}
}

func TestMonthsSorted(t *testing.T) {
	groups := map[time.Time]int{}
	for _, r := range []*session.Record{rec(1, 3, session.Scanning), rec(2, 1, session.Scanning),
		rec(3, 2, session.Scanning), rec(4, 1, session.Scanning)} {
		groups[r.Month()]++
	}
	months := SortedMonths(groups)
	if len(months) != 3 {
		t.Fatalf("months = %v", months)
	}
	for i := 1; i < len(months); i++ {
		if !months[i-1].Before(months[i]) {
			t.Errorf("months unsorted: %v", months)
		}
	}
}

func TestFilter(t *testing.T) {
	s := NewStore()
	for i := uint64(1); i <= 10; i++ {
		k := session.Scanning
		if i%2 == 0 {
			k = session.CommandExec
		}
		s.Add(rec(i, 1, k))
	}
	got := s.Filter(func(r *session.Record) bool { return r.Kind() == session.CommandExec })
	if len(got) != 5 {
		t.Errorf("filtered = %d", len(got))
	}
}

func TestStatsNWorkerInvariance(t *testing.T) {
	s := NewStore()
	kinds := []session.Kind{session.Scanning, session.Scouting, session.Intrusion, session.CommandExec}
	for i := uint64(0); i < 10000; i++ {
		r := rec(i, time.Month(1+i%12), kinds[i%uint64(len(kinds))])
		if i%7 == 0 {
			r.Protocol = session.ProtoTelnet
		}
		s.Add(r)
	}
	want := s.StatsN(1)
	if want.SSH+want.Telnet != want.Total || want.SSHByKind[session.Scouting] == 0 {
		t.Fatalf("implausible serial stats: %+v", want)
	}
	for _, workers := range []int{2, 8, 33} {
		if got := s.StatsN(workers); got != want {
			t.Errorf("workers=%d: %+v != %+v", workers, got, want)
		}
	}
}

func TestConcurrentAdd(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				s.Add(rec(uint64(g*1000+i), 1, session.Scanning))
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 2000 {
		t.Errorf("Len = %d, want 2000", s.Len())
	}
}

func TestConcurrentAddAndQuery(t *testing.T) {
	// Satellite of the store PR: All, Months, Filter, and StatsN must be
	// safe to interleave with Add. Run under -race; the old contract
	// ("queries must not race with Add") made this a footgun for live
	// honeypot nodes querying their collector mid-run.
	s := NewStore()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	kinds := []session.Kind{session.Scanning, session.Scouting, session.Intrusion, session.CommandExec}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Add(rec(uint64(g*10000+i), time.Month(1+i%12), kinds[i%len(kinds)]))
			}
		}(g)
	}
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Each query sees a consistent snapshot: a prefix of the
				// appends, internally stable while iterated.
				snap := s.All()
				for _, r := range snap {
					_ = r.Kind()
				}
				if st := s.StatsN(2); st.Total < len(snap) {
					t.Errorf("StatsN saw %d records after All saw %d", st.Total, len(snap))
					return
				}
				_ = s.Filter(func(r *session.Record) bool { return r.Kind() == session.CommandExec })
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s.Len() < 2000 {
			time.Sleep(time.Millisecond)
		}
	}()
	<-done
	close(stop)
	wg.Wait()
	if s.Len() != 2000 {
		t.Fatalf("Len = %d, want 2000", s.Len())
	}
}
