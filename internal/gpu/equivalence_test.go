package gpu

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
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
// committed under testdata/ and replayed at every -par worker count.
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
}

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden stats snapshots in testdata/")

// TestGoldenStatsSnapshot pins the complete stats.Sim output — cycle counts,
// every counter, and full histogram contents — of representative tiny runs
// against committed golden files. Hot-path optimisations (event skipping,
// scratch buffers, allocation-free walks) must be cycle-exact: if any of
// them changes timing, this test fails byte-for-byte. Regenerate ONLY for
// intentional timing-model changes, with
//
//	go test ./internal/gpu -run TestGoldenStatsSnapshot -update-golden
func TestGoldenStatsSnapshot(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.SmallTest()
			tc.mutate(&cfg)
			w, err := workloads.Build(tc.workload, workloads.SizeTiny, cfg.PageShift, 7)
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
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(st, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
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

// TestParallelTickEquivalence pins the tentpole guarantee of the two-phase
// tick: running the same simulation with any number of core-tick workers
// (-par) produces byte-identical statistics and an identical final memory
// image. It covers every scheduler/MMU/TBC family the golden snapshots pin
// (whose par=1 output is in turn pinned against testdata/), plus a 16-core
// configuration so par=8 exercises genuinely concurrent compute phases
// rather than clamping to the core count.
func TestParallelTickEquivalence(t *testing.T) {
	cases := append(goldenCases[:len(goldenCases):len(goldenCases)],
		statsCase{"memcached_tcws_shared_16core", "memcached", func(c *config.Hardware) {
			c.NumCores = 16
			c.MMU = config.AugmentedMMU()
			c.MMU.SharedTLBEntries = 512
			c.Sched.Policy = config.SchedTCWS
		}})
	run := func(t *testing.T, tc int, par int) ([]byte, uint64, uint64) {
		cfg := config.SmallTest()
		cases[tc].mutate(&cfg)
		w, err := workloads.Build(cases[tc].workload, workloads.SizeTiny, cfg.PageShift, 7)
		if err != nil {
			t.Fatal(err)
		}
		st := &stats.Sim{}
		g, err := New(cfg, w.AS, st)
		if err != nil {
			t.Fatal(err)
		}
		g.MaxCycles = 50_000_000
		g.Workers = par
		cycles, err := g.Run(w.Launch)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		js, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return js, memFingerprint(w), cycles
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, basePrint, baseCycles := run(t, i, 1)
			for _, par := range []int{2, 8} {
				got, print, cycles := run(t, i, par)
				if cycles != baseCycles {
					t.Fatalf("par=%d: simulated %d cycles, par=1 simulated %d", par, cycles, baseCycles)
				}
				if !bytes.Equal(got, base) {
					t.Fatalf("par=%d stats diverged from par=1:\ngot:\n%s\nwant:\n%s", par, got, base)
				}
				if print != basePrint {
					t.Fatalf("par=%d final memory image diverged: %x vs %x", par, print, basePrint)
				}
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
