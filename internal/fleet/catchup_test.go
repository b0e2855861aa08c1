package fleet

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"honeynet/internal/obs"
	"honeynet/internal/session"
	"honeynet/internal/store"
)

// sealedEdge builds an edge store holding n records, every one of them
// sealed, in many small multi-month segments of small blocks, and
// returns it with a registry its counters are on.
func sealedEdge(tb testing.TB, n int) (*store.Store, *obs.Registry) {
	tb.Helper()
	st, err := store.Open(tb.TempDir(), store.Options{BlockBytes: 8 << 10})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := st.Append(mkRec(i)); err != nil {
			tb.Fatal(err)
		}
		if (i+1)%3500 == 0 || i == n-1 {
			if err := st.Seal(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	reg := obs.NewRegistry()
	st.Register(reg)
	return st, reg
}

// dropBatchProxy relays between a forwarder and the collector at addr,
// discarding the drop-th batch frame the forwarder sends (counted over
// all connections): the collector sees the frame after it as a gap and
// commands a rewind.
func dropBatchProxy(t *testing.T, addr string, drop int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var batches atomic.Int64
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", addr)
			if err != nil {
				down.Close()
				return
			}
			go func() {
				io.Copy(down, up)
				down.Close()
			}()
			go func() {
				defer up.Close()
				var buf []byte
				for {
					typ, payload, err := readFrame(down, maxFrame, &buf)
					if err != nil {
						return
					}
					if typ == frameBatch && batches.Add(1) == drop {
						continue
					}
					if writeFrame(up, typ, payload, nil) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestCatchUpReadsEachBlockOnce counts the edge-side work of replaying
// a sealed backlog: one session reads every block of the segments at or
// past its resume cursor exactly once, however many batches that takes,
// and each reconnect or collector-commanded rewind costs at most one
// more pass.
func TestCatchUpReadsEachBlockOnce(t *testing.T) {
	const n = 20000
	for _, tc := range []struct {
		name string
		// mid-way disturbances: fail these send calls, drop this batch
		faultSends []int64
		dropBatch  int64
	}{
		{name: "clean"},
		{name: "link drops", faultSends: []int64{20, 50}},
		{name: "collector rewinds", dropBatch: 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServer(t.TempDir(), ServerOptions{SyncAck: true})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			a, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := a.String()
			if tc.dropBatch > 0 {
				addr = dropBatchProxy(t, addr, tc.dropBatch)
			}

			st, reg := sealedEdge(t, n)
			defer st.Close()
			blocks := reg.Snapshot()["honeynet_store_seal_blocks_total"]
			if blocks < 50 || st.Segments() < 9 {
				t.Fatalf("backlog is %v blocks in %d segments: too few to tell one pass from one per batch", blocks, st.Segments())
			}

			var sends atomic.Int64
			fwd, err := NewForwarder(addr, "edge-1", st, Options{tuning: tuning{
				retryMin: time.Millisecond,
				retryMax: 10 * time.Millisecond,
				fault: func(op string) error {
					if op != "send" {
						return nil
					}
					k := sends.Add(1)
					for _, f := range tc.faultSends {
						if k == f {
							return errors.New("injected link drop")
						}
					}
					return nil
				},
			}})
			if err != nil {
				t.Fatal(err)
			}
			fwd.Register(reg)
			if !fwd.WaitCaughtUp(60 * time.Second) {
				t.Fatalf("never caught up: acked %d of %d", fwd.Acked(), st.NextSeq())
			}
			if err := fwd.Close(); err != nil {
				t.Fatal(err)
			}

			snap := reg.Snapshot()
			read := snap["honeynet_store_blocks_read_total"]
			reconnects := snap["honeynet_fleet_forward_reconnects_total"]
			rewinds := snap["honeynet_fleet_forward_rewinds_total"]
			if reconnects != float64(len(tc.faultSends)) {
				t.Errorf("%v reconnects, want %d", reconnects, len(tc.faultSends))
			}
			// A dropped batch must force a rewind. A dropped link may: the
			// old connection's handler can run ahead of the cursor the
			// new one resumed from, and the acks that follow re-state it.
			if tc.dropBatch > 0 && rewinds == 0 || tc.name == "clean" && rewinds > 0 {
				t.Errorf("%v rewinds", rewinds)
			}
			// A re-open re-reads, at worst, every segment from its first
			// block. (At the parent commit every batch was a re-open:
			// n/256 of them.)
			if limit := blocks * (1 + reconnects + rewinds); read < blocks || read > limit {
				t.Errorf("edge read %v blocks, want %v..%v (%v blocks, %v reconnects, %v rewinds)",
					read, blocks, limit, blocks, reconnects, rewinds)
			}
			if reconnects+rewinds == 0 && read != blocks {
				t.Errorf("undisturbed catch-up read %v blocks, want exactly %v", read, blocks)
			}
			assertShardEquals(t, srv, "edge-1", st)
		})
	}
}

// copyTree copies a directory of plain files, as a crash would leave
// them: whatever bytes each file holds when it is reached.
func copyTree(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

// TestCollectorKilledBeforeFlush takes the collector's directory as a
// kill -9 would leave it at the one point group commit stretches: a
// record is appended (OnRecord has seen it) and the flush that covers
// its group has not run. Whatever the edge had been acked by then must
// be in that image, and a collector restarted over it gets the rest
// redelivered.
func TestCollectorKilledBeforeFlush(t *testing.T) {
	const n, killAt = 3000, 1700
	st := fillStore(t, n)
	defer st.Close()

	dir, image := t.TempDir(), t.TempDir()
	var fwd *Forwarder
	started := make(chan struct{}) // closed once fwd is set
	var ackedAtKill uint64
	var copyErr error
	srv, err := NewServer(dir, ServerOptions{
		SyncAck: true,
		OnRecord: func(_ string, r *session.Record) {
			if r.ID == killAt {
				<-started
				ackedAtKill = fwd.Acked()
				copyErr = copyTree(image, dir)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fwd, err = NewForwarder(addr.String(), "edge-1", st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	close(started)
	if !fwd.WaitCaughtUp(30 * time.Second) {
		t.Fatal("never caught up")
	}
	fwd.Close()
	if err := srv.Close(); err != nil { // orders the hook's writes before the reads below
		t.Fatal(err)
	}
	if copyErr != nil {
		t.Fatal(copyErr)
	}

	srv2, err := NewServer(image, ServerOptions{SyncAck: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	reg := obs.NewRegistry()
	srv2.Register(reg)
	survived := shardOf(t, srv2, "edge-1").NextSeq()
	if survived < ackedAtKill {
		t.Fatalf("edge had been acked %d, killed collector kept %d: an acked record was not durable", ackedAtKill, survived)
	}
	if survived > killAt+1 {
		t.Fatalf("image holds %d records, taken while appending record %d", survived, killAt)
	}
	t.Logf("killed at record %d: edge acked %d, image kept %d", killAt, ackedAtKill, survived)
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewForwarder(addr2.String(), "edge-1", st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !f2.WaitCaughtUp(30 * time.Second) {
		t.Fatal("never caught up after the restart")
	}
	f2.Close()
	snap := reg.Snapshot()
	if got := snap["honeynet_fleet_received_total"]; got != float64(n-int(survived)) {
		t.Errorf("restarted collector took %v records, want the %d it had lost or never seen", got, n-int(survived))
	}
	if got := snap["honeynet_fleet_duplicate_total"]; got != 0 {
		t.Errorf("resume from the recovered cursor redelivered %v duplicates", got)
	}
	assertShardEquals(t, srv2, "edge-1", st)
}
