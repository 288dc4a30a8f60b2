// Scheduler comparison: run one cache-hostile workload under every warp
// scheduling policy of the paper's section 7, with the augmented MMU, and
// report how much of the no-TLB CCWS performance each recovers.
//
//	go run ./examples/schedulers
package main

import (
	"context"
	"fmt"
	"log"

	"gpummu"
)

func main() {
	const workload = "memcached"

	type entry struct {
		name string
		cfg  gpummu.Config
	}
	base := func() gpummu.Config {
		c := gpummu.BaselineConfig()
		c.NumCores = 8 // keep the example quick
		return c
	}

	noTLB := base()
	withMMU := func(mut func(*gpummu.Config)) gpummu.Config {
		c := base()
		c.MMU = gpummu.AugmentedMMU()
		mut(&c)
		return c
	}

	entries := []entry{
		{"lrr, no TLB (baseline)", noTLB},
		{"lrr + augmented MMU", withMMU(func(c *gpummu.Config) {})},
		{"ccws + augmented MMU", withMMU(func(c *gpummu.Config) {
			c.Sched.Policy = gpummu.SchedCCWS
		})},
		{"ta-ccws 4:1 + augmented MMU", withMMU(func(c *gpummu.Config) {
			c.Sched.Policy = gpummu.SchedTACCWS
			c.Sched.TLBMissWeight = 4
		})},
		{"tcws lru(1,2,4,8) + augmented", withMMU(func(c *gpummu.Config) {
			c.Sched.Policy = gpummu.SchedTCWS
			c.Sched.TLBMissWeight = 4
			c.Sched.VTAEntriesPerWarp = 8
			c.Sched.LRUDepthWeights = []int{1, 2, 4, 8}
		})},
	}

	var baseline *gpummu.Report
	fmt.Printf("%-32s %12s %10s %10s\n", "configuration", "cycles", "speedup", "tlb-miss")
	for i, e := range entries {
		rep, err := gpummu.Run(context.Background(),
			gpummu.WithConfig(e.cfg), gpummu.WithWorkload(workload, gpummu.SizeTiny))
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			baseline = rep
		}
		miss := "-"
		if rep.TLBAccesses > 0 {
			miss = fmt.Sprintf("%.1f%%", 100*rep.TLBMissRate())
		}
		fmt.Printf("%-32s %12d %9.3fx %10s\n", e.name, rep.Cycles, rep.Speedup(baseline), miss)
	}
	fmt.Println("\nTCWS needs half the victim-tag hardware of CCWS yet tracks TLB")
	fmt.Println("locality directly — the paper's section 7.2 punchline.")
}
