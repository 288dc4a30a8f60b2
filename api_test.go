package gpummu

import (
	"context"
	"testing"

	"gpummu/internal/kernels"
)

func TestPresetsValidate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"baseline": BaselineConfig(),
		"small":    SmallConfig(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for name, m := range map[string]MMUConfig{
		"naive":     NaiveMMU(3),
		"augmented": AugmentedMMU(),
		"ideal":     IdealMMU(),
	} {
		cfg := BaselineConfig()
		cfg.MMU = m
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestWorkloadNamesStable(t *testing.T) {
	names := WorkloadNames()
	if len(names) < 7 {
		t.Fatalf("only %d workloads registered", len(names))
	}
	if len(PaperWorkloads()) != 6 {
		t.Fatalf("paper set = %v", PaperWorkloads())
	}
}

func TestSpeedupMath(t *testing.T) {
	a := &Report{}
	a.Cycles = 200
	b := &Report{}
	b.Cycles = 100
	if got := b.Speedup(a); got != 2.0 {
		t.Fatalf("speedup = %f", got)
	}
	zero := &Report{}
	if got := zero.Speedup(a); got != 0 {
		t.Fatalf("zero-cycle speedup = %f", got)
	}
}

func TestRunWorkloadUnknown(t *testing.T) {
	if _, err := Run(context.Background(), WithConfig(SmallConfig()), WithWorkload("nonsense", SizeTiny)); err == nil {
		t.Fatal("unknown workload ran")
	}
}

func TestRunWorkloadPageShiftMismatchCaught(t *testing.T) {
	w, err := BuildWorkload("kmeans", SizeTiny, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SmallConfig()
	cfg.PageShift = 21
	if _, err := Run(context.Background(), WithConfig(cfg), WithBuilt(w)); err == nil {
		t.Fatal("page-shift mismatch not caught")
	}
}

func TestRunKernelCustom(t *testing.T) {
	as := NewAddressSpace(12)
	out := as.Malloc(32 * 8)

	b := kernels.NewBuilder("store-tid")
	const rTid, rAddr, rBase kernels.Reg = 0, 1, 2
	b.Special(rTid, kernels.SpecGlobalTID)
	b.ShlImm(rAddr, rTid, 3)
	b.Special(rBase, kernels.SpecParam0)
	b.Add(rAddr, rAddr, rBase)
	b.St(rAddr, 0, rTid, 8)
	b.Exit()
	l := &kernels.Launch{Program: b.MustBuild(), Grid: 1, BlockDim: 32}
	l.Params[0] = out

	cfg := SmallConfig()
	cfg.MMU = AugmentedMMU()
	rep, err := Run(context.Background(), WithConfig(cfg), WithKernel(as, l))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	for tid := uint64(0); tid < 32; tid++ {
		if got := as.Read64(out + tid*8); got != tid {
			t.Fatalf("out[%d] = %d", tid, got)
		}
	}
}

// TestRunBuiltVerifiesFunctionally confirms the functional check gate: a
// verified run of a pre-built workload reports Verified.
func TestRunBuiltVerifiesFunctionally(t *testing.T) {
	w, err := BuildWorkload("pointerchase", SizeTiny, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), WithConfig(SmallConfig()), WithBuilt(w))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatal("check did not run")
	}
}
