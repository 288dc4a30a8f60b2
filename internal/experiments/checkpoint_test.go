package experiments

import (
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/workloads"
)

// checkpointSweep is an 8-point MMU sweep on a 4-core machine that shares
// one mummergpu/tiny build: four TLB sizes, each with and without
// cache-overlapped translation. mummergpu's suffix-tree construction makes
// its build the largest share of a tiny run, so the sweep shows what
// checkpointed warm starts save.
func checkpointSweep() *Plan {
	base := config.Baseline()
	base.NumCores = 4
	p := NewPlan()
	for i := 0; i < 8; i++ {
		c := base
		c.MMU = config.AugmentedMMU()
		c.MMU.Entries = 16 << (i / 2)
		c.MMU.CacheOverlap = i%2 == 0
		p.Add(RunSpec{Workload: "mummergpu", Config: c})
	}
	return p
}

// BenchmarkCheckpointSweep times the sweep cold (every run rebuilds the
// workload) and warm (runs restore one post-build snapshot) on a single
// worker, and fails if any config simulates a different cycle count warm
// than cold. cold/warm ns/op is the checkpoint speedup (DESIGN.md §14.3).
func BenchmarkCheckpointSweep(b *testing.B) {
	plan := checkpointSweep()
	if plan.Len() != 8 {
		b.Fatalf("sweep dedupes to %d configs, want 8", plan.Len())
	}
	cycles := map[bool]map[string]uint64{}
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := &Executor{Workers: 1, Size: workloads.SizeTiny, Seed: 1, Checkpoint: warm}
				e.Execute(plan)
				got := map[string]uint64{}
				for _, s := range plan.Specs() {
					res, _ := e.Store.Get(s)
					if res.Err != nil {
						b.Fatalf("%s: %v", s, res.Err)
					}
					got[s.Key()] = res.Stats.Cycles
				}
				cycles[warm] = got
			}
		})
	}
	cold, warm := cycles[false], cycles[true]
	if cold == nil || warm == nil {
		return // a -bench filter ran only one phase
	}
	for _, s := range plan.Specs() {
		if c, w := cold[s.Key()], warm[s.Key()]; c != w {
			b.Errorf("%s: warm run simulated %d cycles, cold %d", s, w, c)
		}
	}
}
