// Coflowstudy reproduces the paper's motivation (Section 2.2) at laptop
// scale: coflows magnify the impact of rare failures, and rerouting cannot
// hide the damage — while ShareBackup's hardware replacement leaves CCTs
// untouched.
package main

import (
	"fmt"
	"log"

	"sharebackup"
	"sharebackup/internal/coflow"
	"sharebackup/internal/metrics"
)

func main() {
	// Generate a Facebook-like synthetic coflow trace for a 32-rack
	// (k=8) fabric and show its heavy-tailed structure.
	tr, err := coflow.Generate(coflow.GenConfig{Racks: 32, NumCoflows: 200, Duration: 1800, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	widths := make([]float64, len(tr.Coflows))
	for i := range tr.Coflows {
		widths[i] = float64(tr.Coflows[i].Width())
	}
	s := metrics.Summarize(widths)
	fmt.Printf("trace: %d coflows, %d flows; width median %.0f, p90 %.0f, max %.0f\n",
		len(tr.Coflows), tr.TotalFlows(), s.Median, s.P90, s.Max)

	// Figure 1(a): affected flows vs coflows under node failures.
	res, err := sharebackup.Fig1a(sharebackup.Fig1Config{K: 8, Seed: 7, Trace: tr})
	if err != nil {
		log.Fatal(err)
	}
	flows, coflows := res.Series("node failure rate")
	out, err := metrics.RenderSeries("affected flows vs coflows (failure magnification)", flows, coflows)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(out)
	fmt.Printf("a SINGLE node failure affects %.1f%% of flows but %.1f%% of coflows (%.0fx magnification)\n",
		res.SingleFlowPct, res.SingleCoflowPct, res.SingleCoflowPct/res.SingleFlowPct)

	// Figure 1(c): CCT slowdown under a single failure, per architecture.
	fmt.Println()
	cct, err := sharebackup.Fig1c(sharebackup.Fig1cConfig{K: 8, Seed: 7, Coflows: 25, Scenarios: 8})
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range cct {
		cdf := a.CDF()
		if cdf.N() == 0 {
			fmt.Printf("%-12s no affected coflows\n", a.Name)
			continue
		}
		fmt.Printf("%-12s CCT slowdown p50=%.2fx p90=%.2fx max=%.2fx (affected coflows: %d, disconnected: %d)\n",
			a.Name, cdf.Inverse(0.5), cdf.Inverse(0.9), cdf.Inverse(1), cdf.N(), a.Disconnected)
	}
	fmt.Println("\nShareBackup restores the exact topology, so affected coflows see no slowdown at all.")
}
