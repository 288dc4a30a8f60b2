package gpummu_test

import (
	"context"
	"fmt"

	"gpummu"
)

// ExampleRun runs the paper's strawman MMU on a small BFS and prints
// whether the functional check passed — the simulator computes real
// results, not just traffic.
func ExampleRun() {
	cfg := gpummu.SmallConfig()
	cfg.MMU = gpummu.NaiveMMU(3)
	rep, err := gpummu.Run(context.Background(),
		gpummu.WithConfig(cfg), gpummu.WithWorkload("bfs", gpummu.SizeTiny))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("verified:", rep.Verified)
	fmt.Println("tlb accessed:", rep.TLBAccesses > 0)
	// Output:
	// verified: true
	// tlb accessed: true
}

// ExampleReport_Speedup shows the normalisation every figure uses.
func ExampleReport_Speedup() {
	base := &gpummu.Report{}
	base.Cycles = 1000
	faster := &gpummu.Report{}
	faster.Cycles = 800
	fmt.Printf("%.2fx\n", faster.Speedup(base))
	// Output:
	// 1.25x
}
