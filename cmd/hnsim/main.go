// Command hnsim generates the synthetic 33-month honeynet dataset (the
// substitute for the paper's unobtainable production traces) and writes
// it as JSON lines, a Cowrie-compatible event log, or a sealed
// month-partitioned session store.
//
// Usage:
//
//	hnsim [-scale 1000] [-seed 42] [-out dataset.jsonl] [-store DIR] [-months 33]
//
// A -out path ending in .gz is gzip-compressed (~10x smaller on disk);
// hnanalyze -in reads either form transparently. -store writes the
// partitioned store format of internal/store instead: compressed,
// indexed segments that hnanalyze -store and honeynet.Open query
// without slurping the dataset into memory.
//
// At the default 1:1000 scale the full window yields roughly 550k SSH
// sessions with the paper's session-type mix.
package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"honeynet/internal/botnet"
	"honeynet/internal/session"
	"honeynet/internal/simulate"
	"honeynet/internal/store"
)

func main() {
	var (
		scale    = flag.Float64("scale", 1000, "scale divisor applied to paper-scale session rates")
		seed     = flag.Int64("seed", 42, "deterministic RNG seed")
		out      = flag.String("out", "", "output JSONL path, gzip-compressed when it ends in .gz (default stdout; empty when -store is set)")
		storeDir = flag.String("store", "", "write a month-partitioned session store at this directory instead of (or alongside) -out")
		months   = flag.Int("months", 0, "simulate only the first N months (0 = full 33-month window)")
		format   = flag.String("format", "records", `output format: "records" (one session per line) or "cowrie" (Cowrie-compatible event log)`)
	)
	flag.Parse()

	var sinks []func(r *session.Record)
	var flushes []func() error

	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{})
		if err != nil {
			log.Fatalf("hnsim: store: %v", err)
		}
		sinks = append(sinks, func(r *session.Record) {
			if err := st.Append(r); err != nil {
				log.Fatalf("hnsim: store append: %v", err)
			}
		})
		flushes = append(flushes, st.Close)
	}

	if *out != "" || *storeDir == "" {
		var sink *os.File = os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				log.Fatalf("hnsim: %v", err)
			}
			defer f.Close()
			sink = f
		}
		var w io.Writer = sink
		if strings.HasSuffix(*out, ".gz") {
			gz := gzip.NewWriter(sink)
			w = gz
			flushes = append(flushes, gz.Close)
		}
		switch *format {
		case "records":
			sw := session.NewWriter(w)
			sinks = append(sinks, func(r *session.Record) {
				if err := sw.Write(r); err != nil {
					log.Fatalf("hnsim: writing record: %v", err)
				}
			})
			flushes = append([]func() error{sw.Flush}, flushes...)
		case "cowrie":
			bw := bufio.NewWriterSize(w, 1<<20)
			enc := json.NewEncoder(bw)
			sinks = append(sinks, func(r *session.Record) {
				for _, ev := range r.CowrieEvents() {
					if err := enc.Encode(ev); err != nil {
						log.Fatalf("hnsim: writing cowrie events: %v", err)
					}
				}
			})
			flushes = append([]func() error{bw.Flush}, flushes...)
		default:
			log.Fatalf("hnsim: unknown format %q", *format)
		}
	}

	cfg := simulate.Config{
		Scale: *scale,
		Seed:  *seed,
		Sink: func(r *session.Record) {
			for _, s := range sinks {
				s(r)
			}
		},
	}
	if *months > 0 {
		cfg.End = botnet.WindowStart.AddDate(0, *months, 0)
	}
	start := time.Now()
	res, err := simulate.Run(cfg)
	if err != nil {
		log.Fatalf("hnsim: %v", err)
	}
	for _, flush := range flushes {
		if err := flush(); err != nil {
			log.Fatalf("hnsim: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "hnsim: %d sessions in %v (scale 1:%g, seed %d)\n",
		res.Sessions, time.Since(start).Round(time.Millisecond), *scale, *seed)
}
