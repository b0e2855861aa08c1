// Command hncollect is the fleet collector: it accepts session streams
// from honeypotd edge nodes (-forward) and writes one store shard per
// node under a fleet directory that hnanalyze -store queries unchanged.
//
// Usage:
//
//	hncollect -dir fleet/ [-listen :7070] [-admin :9091] [-live=true]
//
// Delivery is at-least-once from the edges and exactly-once in the
// shards: each edge resumes from the cursor the collector advertises at
// connect, and redelivered records are dropped by sequence. An
// acknowledgment is always sent after the record is fsynced here, so a
// collector crash never loses acked data. SIGTERM seals every shard so
// the fleet directory is immediately queryable.
//
// With -live (the default) every committed record also feeds the
// streaming analytics pipeline — fleet-wide online classification,
// counted per category — surfaced as honeynet_live_* on /metrics and as
// a JSON snapshot on /live.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"honeynet"
)

// parseFlags registers every hncollect flag straight onto the facade's
// configuration and parses args. Defaults are read from
// CollectConfig.Defaults, so -h, Collect and the README cannot drift
// apart; a missing -dir is refused by Collect, before any listener
// opens.
func parseFlags(fs *flag.FlagSet, args []string) (honeynet.CollectConfig, error) {
	var cfg honeynet.CollectConfig
	cfg.Defaults()
	fs.StringVar(&cfg.Dir, "dir", "", "fleet directory to write per-node shards under (required)")
	fs.StringVar(&cfg.ListenAddr, "listen", cfg.ListenAddr, "address to accept edge connections on")
	fs.StringVar(&cfg.AdminAddr, "admin", "", "admin listen address serving /metrics, /healthz, /live (empty to disable)")
	live := fs.Bool("live", true, "run the streaming analytics pipeline over committed records (honeynet_live_* metrics, /live on -admin)")
	err := fs.Parse(args)
	cfg.LiveOff = !*live
	return cfg, err
}

func main() {
	cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatalf("hncollect: %v", err)
	}
	c, err := honeynet.Collect(cfg)
	if err != nil {
		log.Fatalf("hncollect: %v", err)
	}
	fmt.Printf("hncollect: collecting on %s into %s (%.0f shards resumed)\n",
		c.Addr(), cfg.Dir, c.Registry().Snapshot()["honeynet_fleet_nodes"])
	if a := c.AdminAddr(); a != "" {
		fmt.Printf("hncollect: admin on http://%s/metrics\n", a)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "hncollect: sealing shards...")
	// Read the counts before Close: a closed collector holds no shards.
	snap := c.Registry().Snapshot()
	if err := c.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "hncollect: close: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "hncollect: %.0f records across %.0f node shards sealed in %s\n",
		snap["honeynet_fleet_collected_records"], snap["honeynet_fleet_nodes"], cfg.Dir)
}
