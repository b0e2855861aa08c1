// Command honeypotd runs one real, network-facing honeypot node: a
// Cowrie-style medium-interaction SSH and Telnet server with an emulated
// shell, recording every completed session as a JSON line.
//
// Usage:
//
//	honeypotd [-ssh :2222] [-telnet :2323] [-id hp-1] [-hostname svr04] [-timeout 3m]
//	          [-store DIR] [-forward HOST:PORT]
//	          [-max-conns 512] [-max-conns-per-ip 8] [-rate 5/s]
//	          [-drain-timeout 30s] [-admin :9090]
//
// Connect with any SSH client as root (any password except "root"):
//
//	ssh -p 2222 root@127.0.0.1
//
// The daemon is built for multi-year runs (the paper's deployment is 33
// months): connections are capped globally and per source IP with
// oldest-connection shedding, admission is rate limited per IP, the
// emulated fetcher has a per-IP download budget so the node cannot be
// farmed as an open proxy, -store keeps every record in a crash-safe
// store (fsynced WAL, torn-tail recovery, sealed month segments) that
// hnquery reads, and SIGTERM drains in-flight sessions before exiting.
// Without -store, records stream to stdout, one JSON line per session.
// With -admin, the node serves Prometheus /metrics, /healthz (503 while
// draining), and /debug/pprof.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"honeynet"
	"honeynet/internal/honeypot"
	"honeynet/internal/session"
)

// parseFlags registers every honeypotd flag straight onto the facade's
// configuration and parses args. Defaults the library has are read from
// it (so -h, Serve and the README cannot drift apart); the guardrail
// defaults below are honeypotd's alone, because a zero ServeConfig
// field means "unlimited". Rate, node id and the -forward/-store
// pairing are validated by Serve, before any listener opens.
func parseFlags(fs *flag.FlagSet, args []string) (honeynet.ServeConfig, error) {
	var cfg honeynet.ServeConfig
	cfg.Defaults()
	fs.StringVar(&cfg.SSHAddr, "ssh", cfg.SSHAddr, "SSH listen address")
	fs.StringVar(&cfg.TelnetAddr, "telnet", ":2323", "Telnet listen address (empty to disable)")
	fs.StringVar(&cfg.AdminAddr, "admin", "", "admin listen address serving /metrics, /healthz, /debug/pprof (empty to disable)")
	fs.StringVar(&cfg.ID, "id", cfg.ID, "honeypot node id")
	fs.StringVar(&cfg.Hostname, "hostname", cfg.Hostname, "fake hostname the shell presents")
	fs.DurationVar(&cfg.Timeout, "timeout", honeypot.DefaultTimeout, "hard session timeout")
	fs.StringVar(&cfg.StorePath, "store", "", "keep sessions in a crash-safe, month-partitioned session store at this directory (queryable via hnquery -store); without it, sessions stream to stdout as JSON lines")
	fs.BoolVar(&cfg.Persistent, "persistent", false, "retain each client's filesystem across connections (defeats attacker consistency checks)")
	fs.StringVar(&cfg.ForwardAddr, "forward", "", "stream stored sessions to the fleet collector (hncollect) at this address; requires -store")
	fs.StringVar(&cfg.ForwardNodeID, "node-id", "", "node identity for fleet forwarding, [A-Za-z0-9._-] (default the -id value)")
	live := fs.Bool("live", true, "run the streaming analytics pipeline on ingest (honeynet_live_* metrics, /live on -admin)")
	fs.IntVar(&cfg.MaxConns, "max-conns", 512, "global concurrent connection cap; oldest connection is shed at the cap (0 = unlimited)")
	fs.IntVar(&cfg.MaxConnsPerIP, "max-conns-per-ip", 8, "per-IP concurrent connection cap; newcomers beyond it are shed (0 = unlimited)")
	fs.StringVar(&cfg.Rate, "rate", "5/s", "per-IP connection admission rate, e.g. 5/s, 300/m (empty = unlimited)")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", cfg.DrainTimeout, "on SIGTERM, wait this long for in-flight sessions before force-closing")
	fs.IntVar(&cfg.DownloadBudget, "download-budget", 120, "per-IP emulated fetches allowed per minute (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.LiveOff = !*live
	if cfg.SSHAddr == "" {
		return cfg, fmt.Errorf("-ssh must not be empty")
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatalf("honeypotd: %v", err)
	}
	if cfg.StorePath == "" {
		cfg.LogOutput = os.Stdout
	}
	cfg.OnRecord = func(r *session.Record) {
		log.Printf("session %d from %s: %s, %d commands", r.ID, r.ClientIP, r.Kind(), len(r.Commands))
	}
	srv, err := honeynet.Serve(cfg)
	if err != nil {
		log.Fatalf("honeypotd: %v", err)
	}
	srv.Registry().PublishExpvar("honeynet")

	fmt.Printf("honeypotd: SSH on %s\n", srv.SSHAddr())
	if a := srv.TelnetAddr(); a != "" {
		fmt.Printf("honeypotd: Telnet on %s\n", a)
	}
	if a := srv.AdminAddr(); a != "" {
		fmt.Printf("honeypotd: admin on http://%s/metrics\n", a)
	}

	// Serve until SIGINT/SIGTERM, then drain: stop accepting, let
	// in-flight sessions finish up to -drain-timeout, force-close the
	// rest (their partial records are still sealed and written), seal
	// the store, and print the counters.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintf(os.Stderr, "honeypotd: draining (up to %v)...\n", cfg.DrainTimeout)
	forced, derr := srv.Drain("shutdown")
	m := srv.Metrics()
	stored := ""
	if cfg.StorePath != "" {
		stored = fmt.Sprintf(", %.0f records in the store", srv.Registry().Snapshot()["honeynet_store_records"])
	}
	fmt.Fprintf(os.Stderr, "honeypotd: shutting down: %d ssh + %d telnet connections (%d shed, %d rate-limited, %d force-closed), %d logins ok / %d failed, %d commands, %d downloads (%d throttled), %d state changes, %d sink errors%s\n",
		m.SSHConnections, m.TelnetConnections, m.ConnsShed, m.RateLimited, forced,
		m.AuthSuccesses, m.AuthFailures, m.Commands, m.Downloads, m.DownloadsThrottled,
		m.StateChanges, m.SinkErrors, stored)
	if m.SinkErrors > 0 {
		fmt.Fprintf(os.Stderr, "honeypotd: WARNING: %d session records failed to reach a sink\n", m.SinkErrors)
	}
	if derr != nil {
		fmt.Fprintf(os.Stderr, "honeypotd: drain: %v\n", derr)
	}
}
