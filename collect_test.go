package honeynet

import (
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"honeynet/internal/session"
	"honeynet/internal/store"
)

// TestCollectFailureReleasesEverything: when the admin bind fails after
// the shards are open and the edge listener is bound, Collect tears
// both down, so a second Collect on the same directory and the same
// listen address starts and resumes the shard untouched.
func TestCollectFailureReleasesEverything(t *testing.T) {
	dir := t.TempDir()
	shard, err := store.Open(filepath.Join(dir, "node-e1"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
	if err := shard.Append(&session.Record{ID: 0, Start: start, End: start.Add(time.Second),
		HoneypotID: "e1", ClientIP: "203.0.113.7", Protocol: session.ProtoSSH}); err != nil {
		t.Fatal(err)
	}
	if err := shard.Close(); err != nil {
		t.Fatal(err)
	}

	// A free port for the edge listener, and a held one for admin.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	listen := ln.Addr().String()
	ln.Close()
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()

	c, err := Collect(CollectConfig{Dir: dir, ListenAddr: listen, AdminAddr: taken.Addr().String()})
	if err == nil {
		c.Close()
		t.Fatal("Collect started with its admin address taken")
	}
	if !strings.Contains(err.Error(), "admin") {
		t.Errorf("error %q, want one about the admin bind", err)
	}

	c, err = Collect(CollectConfig{Dir: dir, ListenAddr: listen})
	if err != nil {
		t.Fatalf("second Collect on the same dir and listen address: %v", err)
	}
	snap := c.Registry().Snapshot()
	if snap["honeynet_fleet_nodes"] != 1 || snap["honeynet_fleet_collected_records"] != 1 {
		t.Errorf("resumed %v nodes with %v records, want 1 and 1",
			snap["honeynet_fleet_nodes"], snap["honeynet_fleet_collected_records"])
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
