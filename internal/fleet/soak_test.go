package fleet

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"honeynet/internal/store"
)

// TestFleetSoak runs the whole distribution tier under churn: three
// edges appending concurrently, forwarders whose connections are
// randomly dropped by the fault hook, and scatter-gather scans racing
// the ingest. After the storm, every collector shard must hold exactly
// its edge's records. The duration comes from FLEET_SOAK (default a
// quick smoke); CI runs it for 60s under -race.
func TestFleetSoak(t *testing.T) {
	dur := 800 * time.Millisecond
	if v := os.Getenv("FLEET_SOAK"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("FLEET_SOAK: %v", err)
		}
		dur = d
	}

	srv, err := NewServer(t.TempDir(), ServerOptions{SyncAck: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	nodes := []string{"soak-a", "soak-b", "soak-c"}
	edges := make([]*store.Store, len(nodes))
	fwds := make([]*Forwarder, len(nodes))
	for i, node := range nodes {
		edges[i], err = store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var ops atomic.Int64
		drop := int64(151 + 64*i) // different drop cadence per edge
		fwds[i], err = NewForwarder(addr.String(), node, edges[i], Options{
			Batch:    32,
			MaxDelay: time.Millisecond,
			RetryMin: time.Millisecond,
			RetryMax: 20 * time.Millisecond,
			Fault: func(op string) error {
				if ops.Add(1)%drop == 0 {
					return errors.New("soak fault")
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(dur)
	var writers, scanners sync.WaitGroup
	stopScan := make(chan struct{})

	// Writers: each edge appends until the deadline.
	counts := make([]int, len(nodes))
	for i := range nodes {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			for n := 0; time.Now().Before(deadline); n++ {
				if err := edges[i].Append(mkRec(n*len(nodes) + i)); err != nil {
					t.Errorf("edge %d append: %v", i, err)
					return
				}
				counts[i]++
				if n%64 == 0 {
					time.Sleep(time.Millisecond) // let batching vary
				}
			}
		}(i)
	}

	// Scanners: scatter-gather over the live collector while it ingests.
	for g := 0; g < 2; g++ {
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			for {
				select {
				case <-stopScan:
					return
				default:
				}
				cur, err := srv.Fleet().RunQuery(&store.Query{})
				if err != nil {
					t.Errorf("soak scan: %v", err)
					return
				}
				var prev time.Time
				var prevMonth time.Time
				for cur.Next() {
					r := cur.Record()
					m := r.Month()
					if m.Before(prevMonth) {
						t.Error("soak scan: month order violated")
						cur.Close()
						return
					}
					if m.Equal(prevMonth) && r.Start.Before(prev) {
						// Within one month the merge is ordered as long
						// as each shard stream is; edges append in time
						// order here, so this must hold.
						t.Error("soak scan: time order violated within month")
						cur.Close()
						return
					}
					prevMonth, prev = m, r.Start
				}
				if err := cur.Err(); err != nil {
					t.Errorf("soak scan: %v", err)
				}
				cur.Close()
			}
		}()
	}

	time.Sleep(time.Until(deadline))
	writers.Wait() // scanners keep racing the drain below

	for i, fwd := range fwds {
		if !fwd.WaitCaughtUp(60 * time.Second) {
			t.Fatalf("edge %d never caught up: acked %d of %d", i, fwd.Acked(), edges[i].NextSeq())
		}
	}
	close(stopScan)
	scanners.Wait()
	for i, fwd := range fwds {
		if err := fwd.Close(); err != nil {
			t.Errorf("edge %d close: %v", i, err)
		}
		if counts[i] == 0 {
			t.Errorf("edge %d appended nothing — soak too short to mean anything", i)
		}
		assertShardEquals(t, srv, nodes[i], edges[i])
		edges[i].Close()
	}
}
