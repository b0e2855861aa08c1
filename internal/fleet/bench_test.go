package fleet

import (
	"fmt"
	"testing"
	"time"

	"honeynet/internal/obs"
	"honeynet/internal/store"
)

// BenchmarkFleetForward measures end-to-end replication throughput:
// b.N records already durable in an edge store, streamed through the
// wire protocol into a collector shard, timed until the last ack.
func BenchmarkFleetForward(b *testing.B) {
	srv, err := NewServer(b.TempDir(), ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < b.N; i++ {
		if err := st.Append(mkRec(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	fwd, err := NewForwarder(addr.String(), "bench-edge", st, Options{Batch: 512, AckWindow: 4096})
	if err != nil {
		b.Fatal(err)
	}
	if !fwd.WaitCaughtUp(10 * time.Minute) {
		b.Fatalf("forward never completed: acked %d of %d", fwd.Acked(), st.NextSeq())
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "recs/s")
	fwd.Close()
	if srv.Len() != b.N {
		b.Fatalf("collector has %d records, want %d", srv.Len(), b.N)
	}
}

// BenchmarkFleetCatchUpSealed measures an edge returning from a
// partition: b.N records, all sealed before the forwarder starts
// (daemon-default segment and block sizes), replayed to a SyncAck
// collector. blocks/rec is the edge's decompression work; one pass over
// the backlog is its floor. Run it with a fixed count, e.g.
// -benchtime 200000x.
func BenchmarkFleetCatchUpSealed(b *testing.B) {
	srv, err := NewServer(b.TempDir(), ServerOptions{SyncAck: true})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < b.N; i++ {
		if err := st.Append(mkRec(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	st.Register(reg)

	b.ResetTimer()
	fwd, err := NewForwarder(addr.String(), "bench-edge", st, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if !fwd.WaitCaughtUp(10 * time.Minute) {
		b.Fatalf("catch-up never completed: acked %d of %d", fwd.Acked(), st.NextSeq())
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "recs/s")
	b.ReportMetric(reg.Snapshot()["honeynet_store_blocks_read_total"]/float64(b.N), "blocks/rec")
	fwd.Close()
	if srv.Len() != b.N {
		b.Fatalf("collector has %d records, want %d", srv.Len(), b.N)
	}
}

// BenchmarkFleetScanScatterGather measures the merged read path: a
// four-shard fleet of sealed stores, fully scanned in (time, node)
// merge order each iteration.
func BenchmarkFleetScanScatterGather(b *testing.B) {
	const nodes, per = 4, 5000
	dir := b.TempDir()
	if err := store.WriteFleetMarker(dir); err != nil {
		b.Fatal(err)
	}
	for n := 0; n < nodes; n++ {
		sh, err := store.Open(store.ShardDir(dir, fmt.Sprintf("bench-%d", n)), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < per; i++ {
			if err := sh.Append(mkRec(i*nodes + n)); err != nil {
				b.Fatal(err)
			}
		}
		if err := sh.Close(); err != nil { // Close seals
			b.Fatal(err)
		}
	}
	fl, err := store.OpenFleet(dir, store.Options{ReadOnly: true})
	if err != nil {
		b.Fatal(err)
	}
	defer fl.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fl.RunQuery(&store.Query{})
		if err != nil {
			b.Fatal(err)
		}
		got := 0
		for res.Next() {
			got++
		}
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
		res.Close()
		if got != nodes*per {
			b.Fatalf("scanned %d records, want %d", got, nodes*per)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*nodes*per/b.Elapsed().Seconds(), "recs/s")
}
