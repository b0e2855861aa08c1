// Longitudinal: regenerate the 33-month synthetic dataset at a small
// scale and print the headline longitudinal findings — the dataset mix
// (section 3.3), the behavioral shift of Figure 1, the top scouts of
// Figure 2, and the top passwords of Figure 10.
package main

import (
	"fmt"
	"log"
	"time"

	"honeynet/internal/analysis"
	"honeynet/internal/core"
	"honeynet/internal/simulate"
)

func main() {
	start := time.Now()
	p, err := core.Simulate(simulate.Config{Scale: 5000, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d sessions across 33 months in %v (scale 1:5000)\n\n",
		len(p.World.Records), time.Since(start).Round(time.Millisecond))

	w := p.World
	fmt.Println(analysis.Stats(w).Table())
	fmt.Println(analysis.Fig1Table(analysis.Fig1(w)))
	fmt.Println(analysis.SharesTable("Figure 2: non-state-changing sessions, top bots", analysis.Fig2(w), 5))
	f10 := analysis.Fig10(w, 5)
	fmt.Println(f10.Table())
	fmt.Printf("dreambox/vertex25ektks123 monthly correlation: %.2f (the synchronized TV-box botnet)\n",
		f10.Correlation("dreambox", "vertex25ektks123"))
}
