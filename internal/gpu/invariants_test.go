package gpu

import (
	"errors"
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/engine"
	"gpummu/internal/obs"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

// runInvariants builds a workload fresh and runs it with the invariant
// checker on — the "clean machine passes its own audit" half of the
// checker's contract.
func runInvariants(t *testing.T, name string, cfg config.Hardware) {
	t.Helper()
	w, err := workloads.Build(name, workloads.SizeTiny, cfg.PageShift, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.Sim{}
	g, err := New(cfg, w.AS, st)
	if err != nil {
		t.Fatal(err)
	}
	g.MaxCycles = 100_000_000
	g.Invariants = true
	if _, err := g.Run(w.Launch); err != nil {
		t.Fatalf("%s with invariants: %v", name, err)
	}
}

// TestInvariantsCleanAcrossModes drives the checker over the design space:
// MMU variants, scheduler families, and divergence modes must all pass the
// audit.
func TestInvariantsCleanAcrossModes(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*config.Hardware)
	}{
		{"no-mmu", func(c *config.Hardware) {}},
		{"naive", func(c *config.Hardware) { c.MMU = config.NaiveMMU(4) }},
		{"augmented", func(c *config.Hardware) { c.MMU = config.AugmentedMMU() }},
		{"shared-tlb", func(c *config.Hardware) {
			c.MMU = config.AugmentedMMU()
			c.MMU.SharedTLBEntries = 256
		}},
		{"gto", func(c *config.Hardware) { c.MMU = config.AugmentedMMU(); c.Sched.Policy = config.SchedGTO }},
		{"ccws", func(c *config.Hardware) { c.MMU = config.AugmentedMMU(); c.Sched.Policy = config.SchedCCWS }},
		{"tbc", func(c *config.Hardware) { c.MMU = config.AugmentedMMU(); c.TBC.Mode = config.DivTBC }},
		{"tlb-tbc", func(c *config.Hardware) { c.MMU = config.AugmentedMMU(); c.TBC.Mode = config.DivTLBTBC }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.SmallTest()
			tc.mutate(&cfg)
			runInvariants(t, "bfs", cfg)
		})
	}
}

// blockFixture builds a machine with one manually dispatched block so the
// corruption tests can mutate live SIMT state directly.
func blockFixture(t *testing.T, mode config.DivergenceMode) (*GPU, *Core, *Block) {
	t.Helper()
	cfg := config.SmallTest()
	cfg.MMU = config.AugmentedMMU()
	cfg.TBC.Mode = mode
	w, err := workloads.Build("bfs", workloads.SizeTiny, cfg.PageShift, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.Sim{}
	g, err := New(cfg, w.AS, st)
	if err != nil {
		t.Fatal(err)
	}
	g.launch = w.Launch
	c := g.cores[0]
	b := newBlock(c, 0, 0)
	c.blocks = append(c.blocks, b)
	if err := g.checkInvariants(0); err != nil {
		t.Fatalf("fresh block fails audit: %v", err)
	}
	return g, c, b
}

// TestInvariantDetectsCorruption injects each class of corruption into live
// machine state and asserts the audit reports it.
func TestInvariantDetectsCorruption(t *testing.T) {
	t.Run("live-thread-count", func(t *testing.T) {
		g, _, b := blockFixture(t, config.DivStack)
		b.liveThreads++
		if err := g.checkInvariants(0); err == nil {
			t.Fatal("audit missed corrupted liveThreads")
		}
	})
	t.Run("stack-pc-out-of-range", func(t *testing.T) {
		g, _, b := blockFixture(t, config.DivStack)
		b.warps[0].top().pc = int32(len(g.launch.Program.Code)) + 5
		if err := g.checkInvariants(0); err == nil {
			t.Fatal("audit missed out-of-range pc")
		}
	})
	t.Run("duplicate-lane", func(t *testing.T) {
		g, _, b := blockFixture(t, config.DivStack)
		lanes := b.warps[0].top().lanes
		if len(lanes) < 2 {
			t.Skip("warp too narrow")
		}
		lanes[1] = lanes[0]
		if err := g.checkInvariants(0); err == nil {
			t.Fatal("audit missed duplicated thread in lane set")
		}
	})
	t.Run("exited-thread-in-lanes", func(t *testing.T) {
		g, _, b := blockFixture(t, config.DivStack)
		tid := b.warps[0].top().lanes[0]
		b.threads[tid].exited = true
		b.liveThreads--
		if err := g.checkInvariants(0); err == nil {
			t.Fatal("audit missed exited thread still in lanes")
		}
	})
	t.Run("barrier-count", func(t *testing.T) {
		g, _, b := blockFixture(t, config.DivStack)
		b.barrierCount = 3
		if err := g.checkInvariants(0); err == nil {
			t.Fatal("audit missed inconsistent barrierCount")
		}
	})
	t.Run("tbc-double-ownership", func(t *testing.T) {
		g, _, b := blockFixture(t, config.DivTBC)
		if len(b.warps) < 2 {
			t.Skip("need two warps")
		}
		b.warps[1].lanes[0] = b.warps[0].lanes[0]
		if err := g.checkInvariants(0); err == nil {
			t.Fatal("audit missed thread owned by two warps")
		}
	})
	t.Run("stale-tlb-entry", func(t *testing.T) {
		g, c, _ := blockFixture(t, config.DivStack)
		// Install a translation whose physical base disagrees with the page
		// table (the VA is mapped; the cached pbase is bogus).
		va := g.as.HeapBase()
		vpn := g.tr.VPN(va)
		wrong := g.tr.Lookup(va).PageBase() ^ (1 << 12)
		c.mmu.TLB().Fill(0, vpn, wrong, -1)
		if err := g.checkInvariants(0); err == nil {
			t.Fatal("audit missed TLB entry disagreeing with page table")
		}
	})
}

// TestInvariantAbortWiring verifies a violation surfaces through Run as a
// typed AbortError matching obs.ErrInvariant: a Progress hook poisons a TLB
// entry mid-run, and the audit must stop the simulation.
func TestInvariantAbortWiring(t *testing.T) {
	cfg := config.SmallTest()
	cfg.MMU = config.AugmentedMMU()
	w, err := workloads.Build("pointerchase", workloads.SizeTiny, cfg.PageShift, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.Sim{}
	g, err := New(cfg, w.AS, st)
	if err != nil {
		t.Fatal(err)
	}
	g.MaxCycles = 100_000_000
	g.Invariants = true
	g.ProgressEvery = 1024
	poisoned := false
	g.Progress = func(obs.Progress) {
		// Poison the first valid TLB entry on every callback so an eviction
		// cannot wash the corruption out before an audit runs. The wrong base
		// derives from the page-table truth, so re-poisoning is idempotent.
		mmu := g.cores[0].mmu
		first := true
		mmu.TLB().ForEachValid(func(vpn, _ uint64, _ engine.Cycle) {
			if first {
				want := g.tr.Lookup(vpn << g.tr.PageShift()).PageBase()
				mmu.TLB().Fill(0, vpn, want^(1<<12), -1)
				poisoned = true
				first = false
			}
		})
	}
	_, runErr := g.Run(w.Launch)
	if !poisoned {
		t.Skip("run too short to poison a TLB entry")
	}
	if runErr == nil {
		t.Fatal("poisoned run completed without an invariant abort")
	}
	if !errors.Is(runErr, obs.ErrInvariant) {
		t.Fatalf("abort cause = %v, want obs.ErrInvariant", runErr)
	}
	var ae *obs.AbortError
	if !errors.As(runErr, &ae) {
		t.Fatalf("error %T is not an *obs.AbortError", runErr)
	}
}
