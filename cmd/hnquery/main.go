// Command hnquery runs hnquery-DSL statements against a session store
// (or fleet) directory and prints the result: aligned text tables for
// projections and aggregates, canonical JSONL for SELECT *, and —
// with an EXPLAIN prefix — the chosen plan and its pruning statistics.
//
// Usage:
//
//	hnquery -store DIR [-csv] 'SELECT month, count(*) GROUP BY month'
//	hnquery -store DIR            # statements read from stdin, one per line
//	hnquery -store DIR -follow ['predicate']
//
// The statement grammar (see the README "Querying the store" section):
//
//	[EXPLAIN] SELECT <*|fields|aggregates> [WHERE expr]
//	          [GROUP BY fields] [ORDER BY cols [DESC]] [LIMIT n]
//
// A fleet directory written by hncollect opens transparently: the
// query scatter-gathers across the per-node shards and the plan
// statistics sum shard-wide.
//
// -follow tails the store (or every shard of a fleet) live: records are
// printed as canonical JSONL as another process appends them, no Load,
// no restart. The optional positional argument is a bare WHERE
// predicate (same grammar as the statement WHERE clause) filtering the
// stream, e.g.:
//
//	hnquery -store fleet/ -follow "downloads > 0 AND proto = 'ssh'"
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"honeynet/internal/query"
	"honeynet/internal/report"
	"honeynet/internal/session"
	"honeynet/internal/store"
)

func main() {
	var (
		storeDir = flag.String("store", "", "session store or fleet directory (required)")
		csv      = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		follow   = flag.Bool("follow", false, "tail the store live, printing appended records as canonical JSONL (optional argument: a WHERE predicate)")
		interval = flag.Duration("interval", time.Second, "poll interval for -follow")
	)
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "hnquery: -store DIR is required")
		flag.Usage()
		os.Exit(2)
	}

	if *follow {
		if err := runFollow(*storeDir, strings.Join(flag.Args(), " "), *interval); err != nil {
			log.Fatalf("hnquery: %v", err)
		}
		return
	}

	src, err := openSource(*storeDir)
	if err != nil {
		log.Fatalf("hnquery: %v", err)
	}
	defer src.Close()

	if args := flag.Args(); len(args) > 0 {
		if err := runOne(src, strings.Join(args, " "), *csv); err != nil {
			log.Fatalf("hnquery: %v", err)
		}
		return
	}

	// REPL-ish mode: one statement per stdin line, errors don't end the
	// session.
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		stmt := strings.TrimSpace(sc.Text())
		if stmt == "" || strings.HasPrefix(stmt, "--") {
			continue
		}
		if err := runOne(src, stmt, *csv); err != nil {
			fmt.Fprintf(os.Stderr, "hnquery: %v\n", err)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("hnquery: reading stdin: %v", err)
	}
}

// openSource opens dir read-only as a single store or, transparently,
// as a fleet of per-node shards. A directory whose writer has a
// background seal in flight (frozen WAL present) can fail to open for a
// moment mid-rename; instead of dying with an opaque error, wait the
// seal out with a clear message and retry briefly.
func openSource(dir string) (store.Reader, error) {
	const (
		tries = 20
		pause = 250 * time.Millisecond
	)
	var lastErr error
	for attempt := 0; attempt < tries; attempt++ {
		if attempt > 0 {
			time.Sleep(pause)
		}
		src, err := store.OpenDir(dir)
		if err == nil {
			return src, nil
		}
		lastErr = err
		if !sealingAnywhere(dir) {
			return nil, err
		}
		if attempt == 0 {
			fmt.Fprintf(os.Stderr, "hnquery: %s: background seal in progress, waiting for it to settle...\n", dir)
		}
	}
	return nil, fmt.Errorf("%w (a background seal kept the store busy for %v; retry once the writer's seal finishes)",
		lastErr, time.Duration(tries)*pause)
}

// sealingAnywhere reports whether dir — or any node shard under it —
// currently holds a frozen WAL awaiting a background seal.
func sealingAnywhere(dir string) bool {
	if store.Sealing(dir) {
		return true
	}
	if !store.IsFleetDir(dir) {
		return false
	}
	nodes, _ := store.FleetNodes(dir)
	for _, node := range nodes {
		if store.Sealing(store.ShardDir(dir, node)) {
			return true
		}
	}
	return false
}

// runFollow tails the store live (see store.Follow), printing each
// record — filtered by the optional predicate — as canonical JSONL.
// Ends cleanly on SIGINT/SIGTERM.
func runFollow(dir, pred string, interval time.Duration) error {
	var filter store.Filter
	if p := strings.TrimSpace(pred); p != "" {
		f, err := query.CompileFilter(p)
		if err != nil {
			if se, ok := err.(*query.SyntaxError); ok && se.Pos <= len(p) {
				fmt.Fprintf(os.Stderr, "  %s\n  %s^\n", p, strings.Repeat(" ", se.Pos))
			}
			return err
		}
		filter = f
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	dec := &session.JSONDecoder{}
	err := store.Follow(ctx, dir, store.Options{}, interval, func(node string, seq uint64, line []byte) error {
		if filter != nil {
			var r session.Record
			if err := dec.Decode(line, &r); err != nil {
				return fmt.Errorf("%s seq %d: %w", node, seq, err)
			}
			if !filter(&r) {
				return nil
			}
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
		return w.Flush()
	})
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// runOne executes one statement and prints its result.
func runOne(src store.Reader, stmt string, csv bool) error {
	res, err := query.Run(src, stmt)
	if err != nil {
		// Positioned errors get a caret line so the offending token is
		// visible at a glance.
		if se, ok := err.(*query.SyntaxError); ok && se.Pos <= len(stmt) {
			fmt.Fprintf(os.Stderr, "  %s\n  %s^\n", stmt, strings.Repeat(" ", se.Pos))
		}
		return err
	}
	for _, line := range res.Explain {
		fmt.Println(line)
	}
	if res.Explain != nil {
		fmt.Println()
	}

	// SELECT * streams full records as canonical JSONL.
	if res.Records != nil || len(res.Columns) == 0 {
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		var buf []byte
		for _, r := range res.Records {
			buf, err = session.AppendJSON(buf[:0], r)
			if err != nil {
				return err
			}
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return w.Flush()
	}

	t := &report.Table{Headers: res.Columns}
	for _, row := range res.Rows {
		cells := make([]any, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		t.AddRow(cells...)
	}
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t)
	}
	return nil
}
