package campaign

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/experiments"
)

// cliFlags declares the campaign-field flags of cmd/gpusim and
// cmd/experiments with the defaults those CLIs give them, plus one flag
// that belongs to the CLI alone.
func cliFlags(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	for name, def := range map[string]string{
		"workload": "bfs", "workloads": "", "size": "small", "mmu": "none",
		"sched": "lrr", "tbc": "off", "pages": "4k", "machine": "baseline",
		"fig": "all", "sampleplan": "", "sampledir": "",
	} {
		fs.String(name, def, "")
	}
	for _, name := range []string{"ports", "entries", "ptws", "sharedtlb", "pwc", "cores", "j"} {
		fs.Int(name, 0, "")
	}
	for _, name := range []string{"seed", "sample", "watchdog", "maxcycles"} {
		fs.Uint64(name, 0, "")
	}
	fs.Bool("software-walks", false, "")
	fs.Bool("checkpoint", false, "")
	fs.Duration("deadline", 0, "")
	fs.Bool("json", false, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

// gpusimBase is cmd/gpusim's campaign when no -campaign file is given.
func gpusimBase(t *testing.T) *Campaign {
	t.Helper()
	c, err := NewAdhoc("gpusim", []string{"bfs"}, "", 0, "", nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestApplyFlagsMachine pins every machine-flag spelling to the config
// the CLIs built from it before the mapping moved here (apart from -mmu
// ideal, which no longer loses its 512 entries to -entries' default), and
// checks that the campaign ApplyFlags leaves, which -validate prints,
// re-parses to itself, with the sweep.normalize default a parsed file
// gets, and spells that same machine.
func TestApplyFlagsMachine(t *testing.T) {
	nonblocking := config.NaiveMMU(4)
	nonblocking.HitsUnderMiss, nonblocking.CacheOverlap = true, true
	mmu := func(m config.MMU, ports int) func(*config.Hardware) {
		return func(h *config.Hardware) {
			h.MMU = m
			if ports > 0 {
				h.MMU.Ports = ports
			}
		}
	}
	sched := func(p config.SchedulerPolicy, weight, vta int, lru ...int) func(*config.Hardware) {
		return func(h *config.Hardware) {
			h.Sched.Policy = p
			if weight > 0 {
				h.Sched.TLBMissWeight, h.Sched.VTAEntriesPerWarp = weight, vta
			}
			if lru != nil {
				h.Sched.LRUDepthWeights = lru
			}
		}
	}
	cases := []struct {
		args string
		want func(*config.Hardware)
	}{
		{"-mmu none", mmu(config.MMU{}, 0)},
		{"-mmu none -ports 8", mmu(config.MMU{}, 0)},
		{"-mmu naive", mmu(config.NaiveMMU(4), 0)},
		{"-mmu naive -ports 3", mmu(config.NaiveMMU(3), 0)},
		{"-mmu nonblocking", mmu(nonblocking, 0)},
		{"-mmu nonblocking -ports 8", mmu(nonblocking, 8)},
		{"-mmu augmented", mmu(config.AugmentedMMU(), 0)},
		{"-mmu augmented -ports 8", mmu(config.AugmentedMMU(), 8)},
		{"-mmu ideal", mmu(config.MMU{}.Ideal(), 0)},
		{"-mmu ideal -ports 8", mmu(config.MMU{}.Ideal(), 8)},
		{"-ports 8", func(*config.Hardware) {}},
		{"-mmu augmented -entries 64 -ptws 2 -sharedtlb 256 -pwc 16 -software-walks", func(h *config.Hardware) {
			h.MMU = config.AugmentedMMU()
			h.MMU.Entries, h.MMU.NumPTWs, h.MMU.SharedTLBEntries, h.MMU.PWCEntries = 64, 2, 256, 16
			h.MMU.SoftwareWalks, h.MMU.SoftwareWalkOverhead = true, 300
		}},
		{"-sched lrr", sched(config.SchedLRR, 0, 0)},
		{"-sched gto", sched(config.SchedGTO, 0, 0)},
		{"-sched ccws", sched(config.SchedCCWS, 0, 0)},
		{"-sched ta-ccws", sched(config.SchedTACCWS, 4, 16)},
		{"-sched tcws", sched(config.SchedTCWS, 4, 8, 1, 2, 4, 8)},
		{"-tbc off", func(h *config.Hardware) { h.TBC.Mode = config.DivStack }},
		{"-tbc tbc", func(h *config.Hardware) { h.TBC.Mode = config.DivTBC }},
		{"-tbc tlb-aware", func(h *config.Hardware) { h.TBC.Mode = config.DivTLBTBC }},
		{"-pages 4k", func(h *config.Hardware) { h.PageShift = 12 }},
		{"-pages 2m", func(h *config.Hardware) { h.PageShift = 21 }},
		{"-cores 4", func(h *config.Hardware) { h.NumCores = 4 }},
		{"-cores 0", func(*config.Hardware) {}},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			c := gpusimBase(t)
			if err := c.ApplyFlags(cliFlags(t, strings.Fields(tc.args)...)); err != nil {
				t.Fatal(err)
			}
			want := config.Baseline()
			tc.want(&want)
			got, err := c.MachineConfig()
			if err != nil {
				t.Fatal(err)
			}
			if got.Key() != want.Key() {
				t.Errorf("machine\n got %s\nwant %s", got.Key(), want.Key())
			}
			again, err := Parse(c.Emit())
			if err != nil {
				t.Fatalf("emitted campaign does not parse: %v\n%s", err, c.Emit())
			}
			if !bytes.Equal(again.Emit(), c.Emit()) || !again.Sweep.Normalize {
				t.Errorf("emitted campaign does not re-parse to itself with normalize: true:\n%s", c.Emit())
			}
			if hw, _ := again.MachineConfig(); hw.Key() != want.Key() {
				t.Errorf("emitted campaign spells a different machine:\n%s", c.Emit())
			}
		})
	}
}

// TestApplyFlagsPrecedence pins the one rule: a flag set on the command
// line overrides the campaign field it names, and an unset flag never
// applies, whatever its default.
func TestApplyFlagsPrecedence(t *testing.T) {
	const doc = "apiVersion: gpummu/v1\nname: base\n" +
		"machine:\n  preset: small\n  set:\n    numcores: 2\n    mmu.enabled: true\n    mmu.assoc: 4\n" +
		"    mmu.entries: 64\n    mmu.ports: 4\n    mmu.numptws: 1\n    mmu.mshrs: 32\n    mmu.walkconcurrency: 4\n" +
		"workloads:\n  names: [kmeans]\n  size: tiny\n  seed: 7\nfigures: [fig3]\n" +
		"sweep:\n  axes:\n    - field: mmu.ports\n      values: [2, 4]\n" +
		"run:\n  workers: 3\nobs:\n  watchdog: 100\n"
	apply := func(t *testing.T, args string) *Campaign {
		t.Helper()
		c, err := Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ApplyFlags(cliFlags(t, strings.Fields(args)...)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	base, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("unset flags never apply", func(t *testing.T) {
		if got := apply(t, "-json").Emit(); !bytes.Equal(got, base.Emit()) {
			t.Errorf("campaign changed:\n%s", got)
		}
	})
	t.Run("set flags beat the campaign", func(t *testing.T) {
		c := apply(t, "-entries 256 -workloads bfs,memcached -size medium -seed 2 -j 5 -watchdog 9 -deadline 1m -sampleplan 1,2,3")
		hw, err := c.MachineConfig()
		if err != nil {
			t.Fatal(err)
		}
		if hw.MMU.Entries != 256 || hw.NumCores != 2 || hw.MMU.Ports != 4 {
			t.Errorf("machine: entries %d cores %d ports %d, want 256 2 4", hw.MMU.Entries, hw.NumCores, hw.MMU.Ports)
		}
		w := c.Workloads
		if !reflect.DeepEqual(w.Names, []string{"bfs", "memcached"}) || w.Size != "medium" || w.Seed != 2 {
			t.Errorf("workloads = %+v", w)
		}
		if c.Run.Workers != 5 || c.Obs.Watchdog != 9 || c.Obs.Deadline.String() != "1m0s" || c.Run.Sampling.String() != "1,2,3" {
			t.Errorf("run = %+v, obs = %+v", c.Run, c.Obs)
		}
		if len(c.Sweep.Axes) != 1 || !reflect.DeepEqual(c.Figures, []string{"fig3"}) {
			t.Errorf("figures %v and sweep %v should be untouched", c.Figures, c.Sweep.Axes)
		}
	})
	t.Run("-machine drops machine.set", func(t *testing.T) {
		c := apply(t, "-machine baseline")
		if c.Machine.Preset != "baseline" || len(c.Machine.Set) != 0 {
			t.Errorf("machine = %+v", c.Machine)
		}
	})
	t.Run("-cores survives -machine", func(t *testing.T) {
		c := apply(t, "-machine small -cores 8")
		if want := map[string]any{"NumCores": "8"}; c.Machine.Preset != "small" || !reflect.DeepEqual(c.Machine.Set, want) {
			t.Errorf("machine = %+v", c.Machine)
		}
	})
	t.Run("-mmu replaces the MMU block", func(t *testing.T) {
		c := apply(t, "-mmu naive")
		hw, err := c.MachineConfig()
		if err != nil {
			t.Fatal(err)
		}
		if hw.MMU != config.NaiveMMU(4) || hw.NumCores != 2 {
			t.Errorf("MMU = %+v with %d cores", hw.MMU, hw.NumCores)
		}
	})
	t.Run("-fig drops the sweep", func(t *testing.T) {
		c := apply(t, "-fig 2,fig4")
		if !reflect.DeepEqual(c.Figures, []string{"fig2", "fig4"}) || len(c.Sweep.Axes) != 0 {
			t.Errorf("figures %v, sweep %v", c.Figures, c.Sweep.Axes)
		}
		if c = apply(t, "-fig all"); len(c.Figures) != len(experiments.All()) {
			t.Errorf("-fig all gave %v", c.Figures)
		}
	})
}

// TestApplyFlagsErrors pins that bad flag values are rejected.
func TestApplyFlagsErrors(t *testing.T) {
	for _, args := range []string{
		"-mmu huge", "-sched fifo", "-tbc on", "-pages 4m", "-machine huge",
		"-seed 0", "-workload nfs", "-size huge", "-sampleplan fast", "-fig 99",
	} {
		err := gpusimBase(t).ApplyFlags(cliFlags(t, strings.Fields(args)...))
		if err == nil {
			t.Errorf("%s: accepted", args)
		}
	}
}
