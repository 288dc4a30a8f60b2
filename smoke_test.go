package gpummu

import (
	"context"
	"testing"
)

// TestSmokeAllWorkloads runs every workload at tiny scale on the small
// machine, with and without the augmented MMU, verifying functional
// results and basic statistic sanity.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range WorkloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			base := SmallConfig()
			rep, err := Run(context.Background(), WithConfig(base), WithWorkload(name, SizeTiny))
			if err != nil {
				t.Fatalf("no-TLB run: %v", err)
			}
			if !rep.Verified {
				t.Fatalf("no functional check ran")
			}
			if rep.Cycles == 0 || rep.Instructions == 0 || rep.MemInstrs == 0 {
				t.Fatalf("degenerate stats: %+v", rep.Sim)
			}

			cfg := SmallConfig()
			cfg.MMU = AugmentedMMU()
			rep2, err := Run(context.Background(), WithConfig(cfg), WithWorkload(name, SizeTiny))
			if err != nil {
				t.Fatalf("augmented run: %v", err)
			}
			if rep2.TLBAccesses == 0 {
				t.Fatalf("TLB never accessed")
			}
			if rep2.Cycles < rep.Cycles {
				t.Logf("note: TLB run faster than baseline (%d < %d)", rep2.Cycles, rep.Cycles)
			}
			t.Logf("%s: base=%d cyc, tlb=%d cyc, missrate=%.1f%%, pagediv=%.2f/%d",
				name, rep.Cycles, rep2.Cycles, 100*rep2.TLBMissRate(),
				rep2.PageDivergence.Mean(), rep2.PageDivergence.Max())
		})
	}
}
