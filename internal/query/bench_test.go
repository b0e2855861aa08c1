package query

import (
	"testing"
	"time"

	"honeynet/internal/store"
)

// benchStore seals n records over m month partitions. mkRecord's
// start offset grows with the global index, so at bench scale it is
// recomputed to stay inside the record's partition month.
func benchStore(b *testing.B, n, m int) *store.Store {
	b.Helper()
	s, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	for i := 0; i < n; i++ {
		r := mkRecord(i%m, i)
		dur := r.End.Sub(r.Start)
		r.Start = time.Date(2021, time.Month(5+i%m), 1, 0, 0, 0, 0, time.UTC).
			Add(time.Duration(i/m) * 97 * time.Second)
		r.End = r.Start.Add(dur)
		if err := s.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkQueryMetadataOnly measures the zero-block-read path: a
// kind/protocol/month-only aggregate answered entirely from sealed
// segment metadata, independent of the record count behind it.
func BenchmarkQueryMetadataOnly(b *testing.B) {
	const n = 50_000
	s := benchStore(b, n, 12)
	c, err := Compile(`SELECT month, count(*) WHERE proto = 'ssh' GROUP BY month ORDER BY month`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Execute(s)
		if err != nil {
			b.Fatal(err)
		}
		if st := res.Stats; st.Mode != "metadata" || st.BlocksRead != 0 {
			b.Fatalf("not metadata-only: %+v", st)
		}
		if len(res.Rows) != 12 {
			b.Fatalf("got %d groups", len(res.Rows))
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkQueryPushdown compares the same month-bounded regex count
// executed with pushdown (the month predicate prunes 11 of 12
// partitions and the projection masks the decode) against what a caller
// without the planner does: a Go loop over Stream(), fully decoding
// every record. recs/s is
// normalized to the store's total record count — the query logically
// ranges over all of it — so the two sub-benchmarks are comparable.
func BenchmarkQueryPushdown(b *testing.B) {
	const n = 50_000
	s := benchStore(b, n, 12)

	b.Run("pushdown", func(b *testing.B) {
		c, err := Compile(`SELECT count(*) WHERE month = '2021-06' AND cmd ~ /wget/`)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := c.Execute(s)
			if err != nil {
				b.Fatal(err)
			}
			if st := res.Stats; st.TimePruned == 0 {
				b.Fatalf("no segments pruned: %+v", st)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
	})

	b.Run("fullscan", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cur, count := s.Stream(), 0
			for cur.Next() {
				r := cur.Record()
				if r.Month().Format("2006-01") == "2021-06" &&
					len(r.Commands) > 0 && containsWget(r.CommandText()) {
					count++
				}
			}
			if err := cur.Err(); err != nil {
				b.Fatal(err)
			}
			cur.Close()
			fullscanCount = count
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
	})
}

// fullscanCount keeps the fullscan arm's loop from being optimized away.
var fullscanCount int

func containsWget(s string) bool {
	for i := 0; i+4 <= len(s); i++ {
		if s[i:i+4] == "wget" {
			return true
		}
	}
	return false
}

// BenchmarkQueryColumnKernels times the paper's scanning statements in
// the shapes the column kernels decide — a command pattern, login
// outcome, a credential and a download count — over a sealed store:
// the bitmap picks the rows from the predicate's stripes and only those
// rows decode, and only the fields each statement returns.
func BenchmarkQueryColumnKernels(b *testing.B) {
	const n = 50_000
	s := benchStore(b, n, 12)
	for _, bc := range []struct{ name, stmt string }{
		{"regex", `SELECT count(*), count(distinct ip) WHERE cmd ~ /mdrfckr/`},
		{"login", `SELECT count(*) WHERE login_ok = true AND state_changed = false`},
		{"user", `SELECT count(*), count(distinct ip) WHERE user = 'root'`},
		{"dls", `SELECT month, sum(dls), count(distinct ip) WHERE dls > 0 GROUP BY month`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, err := Compile(bc.stmt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Execute(s)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) == 0 {
					b.Fatal("no rows")
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
		})
	}
}
