// Quickstart: run one workload on the paper's machine in three MMU
// configurations — no TLB, the naive strawman, and the paper's augmented
// design — and print the overhead each adds, reproducing the paper's core
// result in miniature.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"gpummu"
)

func main() {
	const workload = "bfs"
	ctx := context.Background()

	base := gpummu.BaselineConfig() // no TLB: the normalisation baseline
	baseRep, err := gpummu.Run(ctx, gpummu.WithConfig(base), gpummu.WithWorkload(workload, gpummu.SizeTiny))
	if err != nil {
		log.Fatal(err)
	}

	naive := gpummu.BaselineConfig()
	naive.MMU = gpummu.NaiveMMU(3) // CPU-style blocking TLB (section 6.2)
	naiveRep, err := gpummu.Run(ctx, gpummu.WithConfig(naive), gpummu.WithWorkload(workload, gpummu.SizeTiny))
	if err != nil {
		log.Fatal(err)
	}

	aug := gpummu.BaselineConfig()
	aug.MMU = gpummu.AugmentedMMU() // the paper's design (section 6.3)
	augRep, err := gpummu.Run(ctx, gpummu.WithConfig(aug), gpummu.WithWorkload(workload, gpummu.SizeTiny))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %s (functionally verified: %v)\n\n", workload, augRep.Verified)
	fmt.Printf("%-28s %12s %10s\n", "configuration", "cycles", "speedup")
	for _, r := range []struct {
		name string
		rep  *gpummu.Report
	}{
		{"no TLB (baseline)", baseRep},
		{"naive 128e/3p blocking TLB", naiveRep},
		{"augmented MMU (paper)", augRep},
	} {
		fmt.Printf("%-28s %12d %9.3fx\n", r.name, r.rep.Cycles, r.rep.Speedup(baseRep))
	}
	fmt.Printf("\nnaive TLB miss rate: %.1f%%, page divergence avg %.2f (max %d)\n",
		100*naiveRep.TLBMissRate(), naiveRep.PageDivergence.Mean(), naiveRep.PageDivergence.Max())
	fmt.Printf("augmented design: walk refs eliminated %.1f%%, TLB miss latency %.0f cycles\n",
		100*augRep.WalkRefsEliminated(), augRep.TLBMissLat.Mean())
}
