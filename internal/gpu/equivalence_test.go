package gpu

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

// snapshotOutputs reads back a deterministic slice of a workload's output
// region for comparison. We re-derive output locations per workload by
// re-running its checker, so here we instead hash all backed physical
// memory — identical final memory images mean identical results.
func memFingerprint(w *workloads.Workload) uint64 {
	// FNV-1a over the mapped heap, walked in VA order via the page table.
	// Reading via VA normalises away physical frame assignment.
	var h uint64 = 0xcbf29ce484222325
	base := uint64(0x0000_5C00_0000_0000)
	end := base + w.AS.MappedBytes() + (16 << 20) // mapped heap + guard slack
	for va := base; va < end; va += 64 {
		if _, ok := w.AS.PT.Translate(va); !ok {
			va += 4032 // skip the rest of an unmapped page
			continue
		}
		for off := uint64(0); off < 64; off += 8 {
			h ^= w.AS.Read64(va + off)
			h *= 0x100000001b3
		}
	}
	return h
}

// TestDivergenceModesFunctionallyEquivalent runs the divergent workloads
// under per-warp stacks, TBC, and TLB-aware TBC and demands bit-identical
// final memory: compaction must never change what a kernel computes.
func TestDivergenceModesFunctionallyEquivalent(t *testing.T) {
	for _, name := range []string{"bfs", "mummergpu", "memcached"} {
		var prints []uint64
		for _, mode := range []config.DivergenceMode{config.DivStack, config.DivTBC, config.DivTLBTBC} {
			cfg := config.SmallTest()
			cfg.MMU = config.AugmentedMMU()
			cfg.TBC.Mode = mode
			w, err := workloads.Build(name, workloads.SizeTiny, cfg.PageShift, 99)
			if err != nil {
				t.Fatal(err)
			}
			st := &stats.Sim{}
			g, err := New(cfg, w.AS, st)
			if err != nil {
				t.Fatal(err)
			}
			g.MaxCycles = 50_000_000
			if _, err := g.Run(w.Launch); err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			prints = append(prints, memFingerprint(w))
		}
		if prints[0] != prints[1] || prints[1] != prints[2] {
			t.Fatalf("%s: divergence modes computed different results: %x", name, prints)
		}
	}
}

// statsCase is one pinned simulation: a tiny workload on config.SmallTest
// with mutate applied.
type statsCase struct {
	name     string
	workload string
	mutate   func(*config.Hardware)
}

// goldenCases are the configurations whose complete stats.Sim output is
// committed under testdata/.
var goldenCases = []statsCase{
	// Divergent workload through TBC compaction + the augmented
	// (non-blocking, PTW-scheduled) MMU: exercises multi-warp page
	// attribution and the cache-overlap path.
	{"bfs_tbc_augmented", "bfs", func(c *config.Hardware) {
		c.MMU = config.AugmentedMMU()
		c.TBC.Mode = config.DivTBC
	}},
	// Divergent workload on the blocking naive MMU: exercises the
	// memory-gate / MMU.NextEvent fast-forward horizon.
	{"bfs_naive_blocking", "bfs", func(c *config.Hardware) {
		c.MMU = config.NaiveMMU(3)
	}},
	// CCWS decay is tick-cadence sensitive, so CCWS cores are exempt
	// from event skipping; pin that path too.
	{"bfs_ccws_naive", "bfs", func(c *config.Hardware) {
		c.MMU = config.NaiveMMU(4)
		c.Sched.Policy = config.SchedCCWS
	}},
	// Regular (coalesced) workload under the paper's recommended design.
	{"kmeans_augmented", "kmeans", func(c *config.Hardware) {
		c.MMU = config.AugmentedMMU()
	}},
	// TBC on the blocking MMU: a core asleep behind the memory gate must
	// leave TBC's maintain round exactly where a re-tick would.
	{"bfs_tbc_naive", "bfs", func(c *config.Hardware) {
		c.MMU = config.NaiveMMU(3)
		c.TBC.Mode = config.DivTBC
	}},
	// GTO on the blocking MMU: the gated candidate order depends on
	// lastIssued, which must not move while the core sleeps.
	{"bfs_gto_naive", "bfs", func(c *config.Hardware) {
		c.MMU = config.NaiveMMU(3)
		c.Sched.Policy = config.SchedGTO
	}},
	// Software-managed walks block the core even with hits-under-miss on:
	// the other way into the memory gate.
	{"memcached_swwalks", "memcached", func(c *config.Hardware) {
		c.MMU = config.AugmentedMMU()
		c.MMU.SoftwareWalks = true
		c.MMU.SoftwareWalkOverhead = 300
	}},
	// Hits under miss on a divergent workload: in one step, several
	// cores walk while others send L1 misses, so the order in which walk
	// and data references reach the shared L2 and DRAM shows in the stats.
	{"memcached_augmented", "memcached", func(c *config.Hardware) {
		c.MMU = config.AugmentedMMU()
	}},
	// Sixteen cores sharing an L2 TLB under TCWS: shared-TLB probes and
	// fills, walks and data references from many cores meet in one step.
	{"memcached_tcws_shared_16core", "memcached", func(c *config.Hardware) {
		c.NumCores = 16
		c.MMU = config.AugmentedMMU()
		c.MMU.SharedTLBEntries = 512
		c.Sched.Policy = config.SchedTCWS
	}},
}

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden stats snapshots in testdata/")

// TestGoldenStatsSnapshot pins the complete stats.Sim output — cycle counts,
// every counter, and full histogram contents — of representative tiny runs
// against committed golden files. Hot-path optimisations (event skipping,
// scratch buffers, allocation-free walks) must be cycle-exact: if any of
// them changes timing, this test fails byte-for-byte. Regenerate ONLY for
// intentional model changes, and bump ModelVersion with them:
//
//	go test ./internal/gpu -run TestGoldenStatsSnapshot -update-golden
func TestGoldenStatsSnapshot(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			r := runStatsCase(tc, false)
			if r.err != nil {
				t.Fatal(r.err)
			}
			got := append(r.stats, '\n')
			path := filepath.Join("testdata", "golden_"+tc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: stats snapshot diverged from golden file %s —\n"+
					"an optimisation changed simulated timing.\ngot:\n%s\nwant:\n%s",
					tc.name, path, got, want)
			}
		})
	}
}

// tickResult is what one simulation of a statsCase leaves behind.
type tickResult struct {
	stats  []byte
	print  uint64
	cycles uint64
	err    error
}

// runStatsCase simulates tc on a tiny workload (seed 7) and a GPU of its
// own, stepping every cycle when everyCycle is set. It reports failure
// through the result, so it may run on any goroutine.
func runStatsCase(tc statsCase, everyCycle bool) tickResult {
	cfg := config.SmallTest()
	tc.mutate(&cfg)
	w, err := workloads.Build(tc.workload, workloads.SizeTiny, cfg.PageShift, 7)
	if err != nil {
		return tickResult{err: err}
	}
	st := &stats.Sim{}
	g, err := New(cfg, w.AS, st)
	if err != nil {
		return tickResult{err: err}
	}
	g.MaxCycles = 50_000_000
	g.stepEveryCycle = everyCycle
	cycles, err := g.Run(w.Launch)
	if err != nil {
		return tickResult{err: err}
	}
	js, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return tickResult{err: err}
	}
	return tickResult{stats: js, print: memFingerprint(w), cycles: cycles}
}

// TestParallelTickEquivalence runs every golden configuration on several
// GPUs ticking at once, one goroutine each, as the across-simulation pool
// (-j) does, and demands that each match a lone run of the same
// configuration: the same simulated cycle count, byte-identical statistics
// and an identical final memory image. TestGoldenStatsSnapshot pins the
// lone run's statistics; this test pins its memory image against concurrent
// runs, so any state two simulations share (a package-level cache, a pooled
// buffer) shows up here, and as a race under -race.
func TestParallelTickEquivalence(t *testing.T) {
	const concurrent = 2
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			base := runStatsCase(tc, false)
			if base.err != nil {
				t.Fatal(base.err)
			}
			got := make([]tickResult, concurrent)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = runStatsCase(tc, false)
				}()
			}
			wg.Wait()
			for i, r := range got {
				if r.err != nil {
					t.Fatalf("concurrent run %d: %v", i, r.err)
				}
				if r.cycles != base.cycles {
					t.Fatalf("concurrent run %d simulated %d cycles, the lone run %d", i, r.cycles, base.cycles)
				}
				if !bytes.Equal(r.stats, base.stats) {
					t.Fatalf("concurrent run %d stats diverged from the lone run:\ngot:\n%s\nwant:\n%s", i, r.stats, base.stats)
				}
				if r.print != base.print {
					t.Fatalf("concurrent run %d final memory image diverged: %x vs %x", i, r.print, base.print)
				}
			}
		})
	}
}

// TestStatsCadenceInvariant runs every golden configuration twice: with
// the loop jumping from event to event, and stepping every cycle. Both
// runs must give the same simulated cycle count, byte-identical statistics
// and the same final memory image, so on these configurations no statistic
// measures the loop instead of the simulated machine. It covers only these
// configurations: CCWS-family cores decay their scores on the cycles they
// tick, so their schedules can depend on the cadence elsewhere (DESIGN.md
// §10.1).
func TestStatsCadenceInvariant(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			jump, every := runStatsCase(tc, false), runStatsCase(tc, true)
			if jump.err != nil || every.err != nil {
				t.Fatalf("event-driven run: %v; every-cycle run: %v", jump.err, every.err)
			}
			if jump.cycles != every.cycles {
				t.Fatalf("every-cycle run simulated %d cycles, the event-driven run %d", every.cycles, jump.cycles)
			}
			if !bytes.Equal(jump.stats, every.stats) {
				t.Fatalf("stats depend on the step cadence:\nevent-driven:\n%s\nevery cycle:\n%s", jump.stats, every.stats)
			}
			if jump.print != every.print {
				t.Fatalf("final memory image depends on the step cadence: %x vs %x", jump.print, every.print)
			}
		})
	}
}

// TestMMUModesFunctionallyEquivalent: translation hardware must never
// change results either — no TLB, naive, augmented, shared-L2, software
// walks, and the ideal TLB all produce the same memory image.
func TestMMUModesFunctionallyEquivalent(t *testing.T) {
	shared := config.AugmentedMMU()
	shared.SharedTLBEntries = 1024
	pwc := config.AugmentedMMU()
	pwc.PWCEntries = 32
	sw := config.NaiveMMU(4)
	sw.SoftwareWalks = true
	sw.SoftwareWalkOverhead = 300

	var prints []uint64
	for _, m := range []config.MMU{
		{Enabled: false}, config.NaiveMMU(3), config.AugmentedMMU(),
		shared, pwc, sw, config.MMU{}.Ideal(),
	} {
		cfg := config.SmallTest()
		cfg.MMU = m
		w, err := workloads.Build("memcached", workloads.SizeTiny, cfg.PageShift, 5)
		if err != nil {
			t.Fatal(err)
		}
		st := &stats.Sim{}
		g, err := New(cfg, w.AS, st)
		if err != nil {
			t.Fatal(err)
		}
		g.MaxCycles = 50_000_000
		if _, err := g.Run(w.Launch); err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		prints = append(prints, memFingerprint(w))
	}
	for i := 1; i < len(prints); i++ {
		if prints[i] != prints[0] {
			t.Fatalf("MMU config %d changed results: %x vs %x", i, prints[i], prints[0])
		}
	}
}
