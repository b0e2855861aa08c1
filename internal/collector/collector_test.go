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
	// All and Len must be safe to interleave with Add. Run under -race; the old contract
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
				if n := s.Len(); n < len(snap) {
					t.Errorf("Len saw %d records after All saw %d", n, len(snap))
					return
				}
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
