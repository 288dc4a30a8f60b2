package gpummu

// One testing.B benchmark per table/figure of the paper. Each benchmark
// runs the figure's configuration matrix at tiny scale (so `go test
// -bench=.` stays tractable) and reports the figure's headline metric as a
// custom benchmark unit. The full-scale regeneration lives in
// cmd/experiments; these benches exercise the identical code paths.

import (
	"context"
	"fmt"
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/workloads"
)

// benchWorkloads is the subset used per bench iteration: one divergent and
// one regular workload keeps each figure's shape visible at bench cost.
var benchWorkloads = []string{"bfs", "kmeans"}

func benchRun(b *testing.B, w string, cfg config.Hardware) *Report {
	b.Helper()
	rep, err := Run(context.Background(), WithConfig(cfg), WithWorkload(w, SizeTiny))
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

func benchBaseline(b *testing.B, w string) *Report {
	return benchRun(b, w, BaselineConfig())
}

// BenchmarkFig02NaiveTLB reproduces figure 2: naive 3-ported TLBs under
// LRR, CCWS, and TBC, normalised to the no-TLB baseline.
func BenchmarkFig02NaiveTLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range benchWorkloads {
			base := benchBaseline(b, w)

			naive := BaselineConfig()
			naive.MMU = NaiveMMU(3)
			rep := benchRun(b, w, naive)
			b.ReportMetric(rep.Speedup(base), w+"_naive_speedup")

			ccws := BaselineConfig()
			ccws.MMU = NaiveMMU(3)
			ccws.Sched.Policy = SchedCCWS
			rep = benchRun(b, w, ccws)
			b.ReportMetric(rep.Speedup(base), w+"_ccws+tlb_speedup")

			tbc := BaselineConfig()
			tbc.MMU = NaiveMMU(3)
			tbc.TBC.Mode = DivTBC
			rep = benchRun(b, w, tbc)
			b.ReportMetric(rep.Speedup(base), w+"_tbc+tlb_speedup")
		}
	}
}

// BenchmarkFig03Characterization reproduces figure 3: memory instruction
// fraction, TLB miss rate, and page divergence.
func BenchmarkFig03Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range []string{"bfs", "mummergpu", "kmeans"} {
			cfg := BaselineConfig()
			cfg.MMU = NaiveMMU(3)
			rep := benchRun(b, w, cfg)
			b.ReportMetric(100*rep.MemFraction(), w+"_mem_pct")
			b.ReportMetric(100*rep.TLBMissRate(), w+"_tlbmiss_pct")
			b.ReportMetric(rep.PageDivergence.Mean(), w+"_pagediv_avg")
			b.ReportMetric(float64(rep.PageDivergence.Max()), w+"_pagediv_max")
		}
	}
}

// BenchmarkFig04MissLatency reproduces figure 4: TLB vs L1 miss latency.
func BenchmarkFig04MissLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range benchWorkloads {
			cfg := BaselineConfig()
			cfg.MMU = NaiveMMU(3)
			rep := benchRun(b, w, cfg)
			b.ReportMetric(rep.TLBMissLat.Mean(), w+"_tlbmiss_cy")
			b.ReportMetric(rep.L1MissLat.Mean(), w+"_l1miss_cy")
		}
	}
}

// BenchmarkFig06SizePorts reproduces figure 6: the TLB size/port sweep.
func BenchmarkFig06SizePorts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := "bfs"
		base := benchBaseline(b, w)
		for _, entries := range []int{64, 128, 512} {
			for _, ports := range []int{3, 4, 32} {
				cfg := BaselineConfig()
				cfg.MMU = NaiveMMU(ports)
				cfg.MMU.Entries = entries
				rep := benchRun(b, w, cfg)
				b.ReportMetric(rep.Speedup(base), fmt.Sprintf("%de_%dp_speedup", entries, ports))
			}
		}
	}
}

// BenchmarkFig07NonBlocking reproduces figure 7: non-blocking TLB steps.
func BenchmarkFig07NonBlocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range benchWorkloads {
			base := benchBaseline(b, w)
			blocking := NaiveMMU(4)
			hum := blocking
			hum.HitsUnderMiss = true
			ovl := hum
			ovl.CacheOverlap = true
			for name, m := range map[string]MMUConfig{
				"blocking": blocking, "hum": hum, "overlap": ovl, "ideal": IdealMMU(),
			} {
				cfg := BaselineConfig()
				cfg.MMU = m
				rep := benchRun(b, w, cfg)
				b.ReportMetric(rep.Speedup(base), w+"_"+name+"_speedup")
			}
		}
	}
}

// BenchmarkFig10PTWSched reproduces figure 10: PTW scheduling.
func BenchmarkFig10PTWSched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range benchWorkloads {
			base := benchBaseline(b, w)
			cfg := BaselineConfig()
			cfg.MMU = AugmentedMMU()
			rep := benchRun(b, w, cfg)
			b.ReportMetric(rep.Speedup(base), w+"_augmented_speedup")
			b.ReportMetric(100*rep.WalkRefsEliminated(), w+"_refs_elim_pct")
		}
	}
}

// BenchmarkFig11MultiPTW reproduces figure 11: augmented single walker vs
// naive multi-walker designs.
func BenchmarkFig11MultiPTW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := "bfs"
		base := benchBaseline(b, w)
		aug := BaselineConfig()
		aug.MMU = AugmentedMMU()
		rep := benchRun(b, w, aug)
		b.ReportMetric(rep.Speedup(base), "augmented_1ptw_speedup")
		for _, n := range []int{2, 8} {
			cfg := BaselineConfig()
			cfg.MMU = NaiveMMU(4)
			cfg.MMU.NumPTWs = n
			rep := benchRun(b, w, cfg)
			b.ReportMetric(rep.Speedup(base), fmt.Sprintf("naive_%dptw_speedup", n))
		}
	}
}

// BenchmarkFig13CCWS reproduces figure 13: CCWS with and without TLBs.
func BenchmarkFig13CCWS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range benchWorkloads {
			base := benchBaseline(b, w)
			for name, mut := range map[string]func(*Config){
				"ccws_no_tlb": func(c *Config) { c.Sched.Policy = SchedCCWS },
				"ccws_naive":  func(c *Config) { c.Sched.Policy = SchedCCWS; c.MMU = NaiveMMU(4) },
				"ccws_aug":    func(c *Config) { c.Sched.Policy = SchedCCWS; c.MMU = AugmentedMMU() },
			} {
				cfg := BaselineConfig()
				mut(&cfg)
				rep := benchRun(b, w, cfg)
				b.ReportMetric(rep.Speedup(base), w+"_"+name+"_speedup")
			}
		}
	}
}

// BenchmarkFig16TACCWS reproduces figure 16: TA-CCWS weight sweep.
func BenchmarkFig16TACCWS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := "bfs"
		base := benchBaseline(b, w)
		for _, wt := range []int{2, 4, 8} {
			cfg := BaselineConfig()
			cfg.MMU = AugmentedMMU()
			cfg.Sched.Policy = SchedTACCWS
			cfg.Sched.TLBMissWeight = wt
			rep := benchRun(b, w, cfg)
			b.ReportMetric(rep.Speedup(base), fmt.Sprintf("ta%d_speedup", wt))
		}
	}
}

// BenchmarkFig17TCWS reproduces figure 17: TCWS entries-per-warp sweep.
func BenchmarkFig17TCWS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := "bfs"
		base := benchBaseline(b, w)
		for _, epw := range []int{2, 8, 16} {
			cfg := BaselineConfig()
			cfg.MMU = AugmentedMMU()
			cfg.Sched.Policy = SchedTCWS
			cfg.Sched.TLBMissWeight = 4
			cfg.Sched.VTAEntriesPerWarp = epw
			rep := benchRun(b, w, cfg)
			b.ReportMetric(rep.Speedup(base), fmt.Sprintf("epw%d_speedup", epw))
		}
	}
}

// BenchmarkFig18TCWSLRU reproduces figure 18: TCWS LRU-depth weights.
func BenchmarkFig18TCWSLRU(b *testing.B) {
	schemes := map[string][]int{
		"lru1234": {1, 2, 3, 4},
		"lru1248": {1, 2, 4, 8},
		"lru1369": {1, 3, 6, 9},
	}
	for i := 0; i < b.N; i++ {
		w := "bfs"
		base := benchBaseline(b, w)
		for name, ws := range schemes {
			cfg := BaselineConfig()
			cfg.MMU = AugmentedMMU()
			cfg.Sched.Policy = SchedTCWS
			cfg.Sched.TLBMissWeight = 4
			cfg.Sched.VTAEntriesPerWarp = 8
			cfg.Sched.LRUDepthWeights = ws
			rep := benchRun(b, w, cfg)
			b.ReportMetric(rep.Speedup(base), name+"_speedup")
		}
	}
}

// BenchmarkFig20TBC reproduces figure 20: TBC with and without TLBs.
func BenchmarkFig20TBC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range []string{"bfs", "mummergpu"} {
			base := benchBaseline(b, w)
			for name, mut := range map[string]func(*Config){
				"tbc_no_tlb": func(c *Config) { c.TBC.Mode = DivTBC },
				"tbc_naive":  func(c *Config) { c.TBC.Mode = DivTBC; c.MMU = NaiveMMU(4) },
				"tbc_aug":    func(c *Config) { c.TBC.Mode = DivTBC; c.MMU = AugmentedMMU() },
			} {
				cfg := BaselineConfig()
				mut(&cfg)
				rep := benchRun(b, w, cfg)
				b.ReportMetric(rep.Speedup(base), w+"_"+name+"_speedup")
			}
		}
	}
}

// BenchmarkFig22TLBTBC reproduces figure 22: TLB-aware TBC CPM bit sweep.
func BenchmarkFig22TLBTBC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := "bfs"
		base := benchBaseline(b, w)
		for _, bits := range []int{1, 2, 3} {
			cfg := BaselineConfig()
			cfg.MMU = AugmentedMMU()
			cfg.TBC.Mode = DivTLBTBC
			cfg.TBC.CPMBits = bits
			rep := benchRun(b, w, cfg)
			b.ReportMetric(rep.Speedup(base), fmt.Sprintf("cpm%dbit_speedup", bits))
		}
	}
}

// BenchmarkLargePages reproduces the section 9 large-page study.
func BenchmarkLargePages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range []string{"kmeans", "mummergpu"} {
			cfg := BaselineConfig()
			cfg.PageShift = 21
			cfg.MMU = AugmentedMMU()
			rep := benchRun(b, w, cfg)
			b.ReportMetric(rep.PageDivergence.Mean(), w+"_2m_pagediv")
			b.ReportMetric(100*rep.TLBMissRate(), w+"_2m_miss_pct")
		}
	}
}

// BenchmarkAblationPTWBatchWindow measures the design choice DESIGN.md
// calls out: PTW scheduling vs serial walks vs extra hardware walkers.
func BenchmarkAblationPTWBatchWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := "mummergpu"
		serial := NaiveMMU(4)
		serial.HitsUnderMiss = true
		serial.CacheOverlap = true
		sched := serial
		sched.PTWSched = true
		multi := serial
		multi.NumPTWs = 4
		for name, m := range map[string]MMUConfig{
			"serial": serial, "ptwsched": sched, "4walkers": multi,
		} {
			cfg := BaselineConfig()
			cfg.MMU = m
			rep := benchRun(b, w, cfg)
			b.ReportMetric(float64(rep.Cycles), name+"_cycles")
		}
	}
}

// BenchmarkAblationCPMFlush sweeps the CPM flush period (paper: 500).
func BenchmarkAblationCPMFlush(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, period := range []int{100, 500, 5000} {
			cfg := BaselineConfig()
			cfg.MMU = AugmentedMMU()
			cfg.TBC.Mode = DivTLBTBC
			cfg.TBC.CPMFlushPeriod = period
			rep := benchRun(b, "bfs", cfg)
			b.ReportMetric(float64(rep.Cycles), fmt.Sprintf("flush%d_cycles", period))
		}
	}
}

// BenchmarkAblationTLBMSHRs sweeps the TLB miss-status register count
// (paper default: 32, one per warp thread).
func BenchmarkAblationTLBMSHRs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mshrs := range []int{4, 16, 32} {
			cfg := BaselineConfig()
			cfg.MMU = AugmentedMMU()
			cfg.MMU.MSHRs = mshrs
			rep := benchRun(b, "mummergpu", cfg)
			b.ReportMetric(float64(rep.Cycles), fmt.Sprintf("mshr%d_cycles", mshrs))
		}
	}
}

// BenchmarkAblationWalkConcurrency sweeps the walker's walk-state register
// count (the calibration choice DESIGN.md section 2 documents).
func BenchmarkAblationWalkConcurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, wc := range []int{1, 4, 8} {
			cfg := BaselineConfig()
			cfg.MMU = NaiveMMU(4)
			cfg.MMU.WalkConcurrency = wc
			rep := benchRun(b, "mummergpu", cfg)
			b.ReportMetric(float64(rep.Cycles), fmt.Sprintf("wc%d_cycles", wc))
		}
	}
}

// BenchmarkExtensionSharedL2TLB measures the chip-level shared TLB
// extension (a section 10 follow-up direction, not a paper figure).
func BenchmarkExtensionSharedL2TLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, entries := range []int{0, 1024, 4096} {
			cfg := BaselineConfig()
			cfg.MMU = AugmentedMMU()
			cfg.MMU.SharedTLBEntries = entries
			rep := benchRun(b, "mummergpu", cfg)
			name := fmt.Sprintf("shared%d_cycles", entries)
			b.ReportMetric(float64(rep.Cycles), name)
			if entries > 0 {
				b.ReportMetric(float64(rep.SharedTLBHits), fmt.Sprintf("shared%d_hits", entries))
			}
		}
	}
}

// BenchmarkExtensionSoftwareWalks measures OS-handler miss servicing (the
// section 6.1 option the paper rejects) against hardware walkers.
func BenchmarkExtensionSoftwareWalks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hw := BaselineConfig()
		hw.MMU = NaiveMMU(4)
		rep := benchRun(b, "bfs", hw)
		b.ReportMetric(float64(rep.Cycles), "hardware_cycles")

		sw := BaselineConfig()
		sw.MMU = NaiveMMU(4)
		sw.MMU.SoftwareWalks = true
		sw.MMU.SoftwareWalkOverhead = 300
		rep = benchRun(b, "bfs", sw)
		b.ReportMetric(float64(rep.Cycles), "software_cycles")
	}
}

// BenchmarkExtensionPWC measures the page-walk-cache extension against
// the paper's augmented design (translation caching, Barr et al.).
func BenchmarkExtensionPWC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, entries := range []int{0, 16, 64} {
			cfg := BaselineConfig()
			cfg.MMU = AugmentedMMU()
			cfg.MMU.PWCEntries = entries
			rep := benchRun(b, "bfs", cfg)
			b.ReportMetric(float64(rep.Cycles), fmt.Sprintf("pwc%d_cycles", entries))
			if entries > 0 {
				b.ReportMetric(float64(rep.PWCHits), fmt.Sprintf("pwc%d_hits", entries))
			}
		}
	}
}

// BenchmarkExperimentHarness smoke-runs one harness figure end to end so
// the figure plumbing itself is covered by `go test -bench`.
func BenchmarkExperimentHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(discard{}, experiments.Options{
			Size:     workloads.SizeTiny,
			Seed:     1,
			Workload: []string{"bfs"},
		})
		fig, err := experiments.ByID("fig4")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fig.Run(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorWorkers measures the plan/execute pipeline's scaling:
// the same deduped figure-2 matrix executed serially and on a GOMAXPROCS
// worker pool. The runs-per-second metrics expose the parallel speedup on
// the host; sub-benchmark names carry the worker count.
func BenchmarkExecutorWorkers(b *testing.B) {
	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS
		name := fmt.Sprintf("j%d", workers)
		if workers == 0 {
			name = "jmax"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := experiments.New(discard{}, experiments.Options{
					Size:     workloads.SizeTiny,
					Seed:     1,
					Workload: benchWorkloads,
					Workers:  workers,
				})
				fig2, err := experiments.ByID("fig2")
				if err != nil {
					b.Fatal(err)
				}
				plan := h.PlanFigures([]experiments.Figure{fig2})
				ran := h.Execute(plan)
				if ran != plan.Len() {
					b.Fatalf("executed %d of %d runs", ran, plan.Len())
				}
				if _, err := fig2.Run(h); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ran), "sims")
			}
		})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
