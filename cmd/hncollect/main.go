// Command hncollect is the fleet collector: it accepts session streams
// from honeypotd edge nodes (-forward) and writes one store shard per
// node under a fleet directory that hnanalyze -store queries unchanged.
//
// Usage:
//
//	hncollect -dir fleet/ [-listen :7070] [-admin :9091]
//	          [-sync-ack=true] [-live=true]
//
// Delivery is at-least-once from the edges and exactly-once in the
// shards: each edge resumes from the cursor the collector advertises at
// connect, and redelivered records are dropped by sequence. With
// -sync-ack (the default) an acknowledgment implies the record is
// fsynced here, so a collector crash never loses acked data. SIGTERM
// seals every shard so the fleet directory is immediately queryable.
//
// With -live (the default) every committed record also feeds the
// streaming analytics pipeline — fleet-wide online classification,
// cluster assignment, and campaign waves — surfaced as honeynet_live_*
// on /metrics and as a JSON snapshot on /live.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"honeynet/internal/fleet"
	"honeynet/internal/live"
	"honeynet/internal/obs"
	"honeynet/internal/session"
)

func main() {
	var (
		dir      = flag.String("dir", "", "fleet directory to write per-node shards under (required)")
		listen   = flag.String("listen", ":7070", "address to accept edge connections on")
		admin    = flag.String("admin", "", "admin listen address serving /metrics, /healthz, /live (empty to disable)")
		syncAck  = flag.Bool("sync-ack", true, "fsync a shard's WAL before acknowledging, so acked records survive a collector crash")
		liveOn   = flag.Bool("live", true, "run the streaming analytics pipeline over committed records (honeynet_live_* metrics, /live on -admin)")
		liveSeed = flag.Int64("live-seed", 0, "seed for the live cluster engine's sampling (0 = default)")
	)
	flag.Parse()
	if *dir == "" {
		log.Fatal("hncollect: -dir is required")
	}

	var pipeline *live.Pipeline
	if *liveOn {
		pipeline = live.NewPipeline(live.Options{Seed: *liveSeed})
	}
	opts := fleet.ServerOptions{SyncAck: *syncAck}
	if pipeline != nil {
		opts.OnRecord = func(_ string, r *session.Record) { pipeline.Observe(r) }
	}
	srv, err := fleet.NewServer(*dir, opts)
	if err != nil {
		log.Fatalf("hncollect: %v", err)
	}
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("hncollect: %v", err)
	}
	fmt.Printf("hncollect: collecting on %s into %s (%d shards resumed)\n", addr, *dir, srv.Nodes())

	reg := obs.NewRegistry()
	srv.Register(reg)
	var routes []obs.Route
	if pipeline != nil {
		pipeline.Register(reg)
		routes = append(routes, obs.Route{Pattern: "/live", Handler: pipeline.Handler()})
	}
	var adminSrv *http.Server
	if *admin != "" {
		if adminSrv, err = obs.ServeAdmin(*admin, reg, nil, routes...); err != nil {
			log.Fatalf("hncollect: admin: %v", err)
		}
		fmt.Printf("hncollect: admin on http://%s/metrics\n", adminSrv.Addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "hncollect: sealing shards...")
	if adminSrv != nil {
		adminSrv.Close()
	}
	nodes, records := srv.Nodes(), srv.Len()
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "hncollect: close: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "hncollect: %d records across %d node shards sealed in %s\n", records, nodes, *dir)
}
