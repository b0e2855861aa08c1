package main

import (
	"flag"
	"fmt"
	"time"

	"honeynet"
	"honeynet/internal/fleet"
	"honeynet/internal/guard"
	"honeynet/internal/honeypot"
	"honeynet/internal/sessionlog"
	"honeynet/internal/store"
)

// Defaults, in one place: flag registration and the README quote them
// from here, so help text and docs cannot drift apart.
const (
	defaultSSHAddr       = ":2222"
	defaultTelnetAddr    = ":2323"
	defaultID            = "hp-1"
	defaultHostname      = "svr04"
	defaultMaxConns      = 512
	defaultMaxConnsPerIP = 8
	defaultRate          = "5/s"
	defaultLogMaxSize    = "256MB"
	defaultDrainTimeout  = 30 * time.Second
	defaultDLBudget      = 120
)

// Config is every honeypotd knob in one struct. Flags register against
// it, Validate checks it, and ServeConfig converts it for the facade.
type Config struct {
	SSHAddr    string
	TelnetAddr string
	AdminAddr  string
	ID         string
	Hostname   string
	Timeout    time.Duration
	Out        string
	Store      string
	StoreBatch int
	StoreDelay time.Duration
	Persistent bool

	Forward      string
	NodeID       string
	ForwardBatch int
	ForwardDelay time.Duration
	AckWindow    int

	Live bool

	MaxConns      int
	MaxConnsPerIP int
	Rate          string
	LogMaxSize    string
	DrainTimeout  time.Duration
	DLBudget      int

	// logMaxBytes is the parsed LogMaxSize, filled by Validate.
	logMaxBytes int64
}

// RegisterFlags binds every field to fs.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.SSHAddr, "ssh", defaultSSHAddr, "SSH listen address")
	fs.StringVar(&c.TelnetAddr, "telnet", defaultTelnetAddr, "Telnet listen address (empty to disable)")
	fs.StringVar(&c.AdminAddr, "admin", "", "admin listen address serving /metrics, /healthz, /debug/pprof (empty to disable)")
	fs.StringVar(&c.ID, "id", defaultID, "honeypot node id")
	fs.StringVar(&c.Hostname, "hostname", defaultHostname, "fake hostname the shell presents")
	fs.DurationVar(&c.Timeout, "timeout", honeypot.DefaultTimeout, "hard session timeout")
	fs.StringVar(&c.Out, "out", "", "session JSONL output file (default stdout)")
	fs.StringVar(&c.Store, "store", "", "also sink sessions into a month-partitioned session store at this directory (queryable via hnanalyze -store)")
	fs.IntVar(&c.StoreBatch, "store-max-batch", 0, "records per group-commit WAL write in the store (0 = default)")
	fs.DurationVar(&c.StoreDelay, "store-max-delay", 0, "longest a record may wait in the store's group-commit batch (0 = default)")
	fs.BoolVar(&c.Persistent, "persistent", false, "retain each client's filesystem across connections (defeats attacker consistency checks)")
	fs.StringVar(&c.Forward, "forward", "", "stream stored sessions to the fleet collector (hncollect) at this address; requires -store")
	fs.StringVar(&c.NodeID, "node-id", "", "node identity for fleet forwarding, [A-Za-z0-9._-] (default the -id value)")
	fs.IntVar(&c.ForwardBatch, "forward-batch", 0, "records per forwarded batch frame (0 = 256)")
	fs.DurationVar(&c.ForwardDelay, "forward-max-delay", 0, "longest a record may wait for a forward batch to fill (0 = 2ms)")
	fs.IntVar(&c.AckWindow, "ack-window", 0, "unacknowledged in-flight record cap before forwarding waits for collector acks (0 = 4x batch)")
	fs.BoolVar(&c.Live, "live", true, "run the streaming analytics pipeline on ingest (honeynet_live_* metrics, /live on -admin)")
	fs.IntVar(&c.MaxConns, "max-conns", defaultMaxConns, "global concurrent connection cap; oldest connection is shed at the cap (0 = unlimited)")
	fs.IntVar(&c.MaxConnsPerIP, "max-conns-per-ip", defaultMaxConnsPerIP, "per-IP concurrent connection cap; newcomers beyond it are shed (0 = unlimited)")
	fs.StringVar(&c.Rate, "rate", defaultRate, "per-IP connection admission rate, e.g. 5/s, 300/m (empty = unlimited)")
	fs.StringVar(&c.LogMaxSize, "log-max-size", defaultLogMaxSize, "rotate the session log past this size, e.g. 64MB, 1GB (0 = never)")
	fs.DurationVar(&c.DrainTimeout, "drain-timeout", defaultDrainTimeout, "on SIGTERM, wait this long for in-flight sessions before force-closing")
	fs.IntVar(&c.DLBudget, "download-budget", defaultDLBudget, "per-IP emulated fetches allowed per minute (0 = unlimited)")
}

// Validate parses and checks the string-typed knobs.
func (c *Config) Validate() error {
	if _, err := guard.ParseRate(c.Rate); err != nil {
		return fmt.Errorf("-rate: %w", err)
	}
	n, err := sessionlog.ParseSize(c.LogMaxSize)
	if err != nil {
		return fmt.Errorf("-log-max-size: %w", err)
	}
	c.logMaxBytes = n
	if c.SSHAddr == "" {
		return fmt.Errorf("-ssh must not be empty")
	}
	opts := store.Options{MaxBatch: c.StoreBatch, MaxDelay: c.StoreDelay}
	if err := opts.Validate(); err != nil {
		return fmt.Errorf("-store-max-batch/-store-max-delay: %w", err)
	}
	fopts := fleet.Options{Batch: c.ForwardBatch, MaxDelay: c.ForwardDelay, AckWindow: c.AckWindow}
	if err := fopts.Validate(); err != nil {
		return fmt.Errorf("-forward-batch/-forward-max-delay/-ack-window: %w", err)
	}
	if c.Forward != "" {
		if c.Store == "" {
			return fmt.Errorf("-forward requires -store (the local store is the durable send queue)")
		}
		node := c.NodeID
		if node == "" {
			node = c.ID
		}
		if !store.ValidNodeID(node) {
			return fmt.Errorf("-node-id: %q not a valid node id ([A-Za-z0-9._-], max 64)", node)
		}
	}
	return nil
}

// ServeConfig converts to the facade's configuration. Validate must
// have succeeded first.
func (c *Config) ServeConfig() honeynet.ServeConfig {
	return honeynet.ServeConfig{
		SSHAddr:         c.SSHAddr,
		TelnetAddr:      c.TelnetAddr,
		AdminAddr:       c.AdminAddr,
		ID:              c.ID,
		Hostname:        c.Hostname,
		Timeout:         c.Timeout,
		Persistent:      c.Persistent,
		MaxConns:        c.MaxConns,
		MaxConnsPerIP:   c.MaxConnsPerIP,
		Rate:            c.Rate,
		DownloadBudget:  c.DLBudget,
		StorePath:       c.Store,
		StoreMaxBatch:   c.StoreBatch,
		StoreMaxDelay:   c.StoreDelay,
		ForwardAddr:     c.Forward,
		ForwardNodeID:   c.NodeID,
		ForwardBatch:    c.ForwardBatch,
		ForwardMaxDelay: c.ForwardDelay,
		AckWindow:       c.AckWindow,
		LogPath:         c.Out,
		LogMaxSize:      c.logMaxBytes,
		DrainTimeout:    c.DrainTimeout,
		LiveOff:         !c.Live,
	}
}
