package gpummu

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"gpummu/internal/config"
	"gpummu/internal/kernels"
)

// TestRunWithObservability drives the full option surface in one run and
// cross-checks every artefact against the report.
func TestRunWithObservability(t *testing.T) {
	cfg := SmallConfig()
	cfg.MMU = AugmentedMMU()
	var trace bytes.Buffer
	smp := NewSampler(100, 0)
	reg := NewRegistry()
	var progressCalls int

	rep, err := Run(context.Background(),
		WithConfig(cfg),
		WithWorkload("bfs", SizeTiny),
		WithSeed(7),
		WithMaxCycles(50_000_000),
		WithWatchdog(10_000_000),
		WithSampler(smp),
		WithTrace(&trace),
		WithMetrics(reg),
		WithProgress(func(Progress) { progressCalls++ }, 1<<14),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Error("functional check did not run")
	}

	if len(rep.Series) == 0 {
		t.Fatal("no samples recorded")
	}
	last := rep.Series[len(rep.Series)-1]
	if last.Cycle != rep.Cycles || last.Instructions != rep.Instructions.Value() {
		t.Errorf("final sample (%d cyc, %d instr) != report (%d cyc, %d instr)",
			last.Cycle, last.Instructions, rep.Cycles, rep.Instructions.Value())
	}
	if last.TLBMisses != rep.TLBMisses.Value() || last.Walks != rep.Walks.Value() {
		t.Errorf("final sample TLB/walk columns diverge from report")
	}

	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace is empty")
	}

	if rep.Metrics != reg || reg.Len() == 0 {
		t.Fatal("metrics registry not collected")
	}
	var perCore uint64
	for i := 0; i < cfg.NumCores; i++ {
		if m, ok := reg.Lookup("core.instructions{core=" + itoa(i) + "}"); ok {
			perCore += m.Value()
		}
	}
	if perCore != rep.Instructions.Value() {
		t.Errorf("per-core metric sum %d != report instructions %d", perCore, rep.Instructions.Value())
	}
}

func itoa(i int) string {
	return string(rune('0' + i)) // cores 0..9 in SmallConfig
}

// spinKernel builds an infinite loop for abort-path tests.
func spinKernel(t *testing.T) (*Config, *kernels.Launch) {
	t.Helper()
	b := kernels.NewBuilder("spin")
	b.Label("top")
	b.Jmp("top")
	b.Exit()
	cfg := SmallConfig()
	return &cfg, &kernels.Launch{Program: b.MustBuild(), Grid: 1, BlockDim: 32}
}

// TestRunTypedAborts checks each guard surfaces its sentinel through the
// public API.
func TestRunTypedAborts(t *testing.T) {
	t.Run("watchdog", func(t *testing.T) {
		cfg, l := spinKernel(t)
		_, err := Run(context.Background(), WithConfig(*cfg),
			WithKernel(NewAddressSpace(12), l), WithWatchdog(50_000))
		if !errors.Is(err, ErrLivelock) {
			t.Fatalf("not ErrLivelock: %v", err)
		}
		var ae *AbortError
		if !errors.As(err, &ae) || ae.Dump == "" {
			t.Fatalf("no diagnostic dump: %v", err)
		}
	})
	t.Run("maxcycles", func(t *testing.T) {
		cfg, l := spinKernel(t)
		_, err := Run(context.Background(), WithConfig(*cfg),
			WithKernel(NewAddressSpace(12), l), WithMaxCycles(10_000))
		if !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("not ErrMaxCycles: %v", err)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		cfg, l := spinKernel(t)
		_, err := Run(context.Background(), WithConfig(*cfg),
			WithKernel(NewAddressSpace(12), l), WithDeadline(time.Now().Add(-time.Second)))
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("not ErrDeadline: %v", err)
		}
	})
	t.Run("context", func(t *testing.T) {
		cfg, l := spinKernel(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := Run(ctx, WithConfig(*cfg), WithKernel(NewAddressSpace(12), l))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("not context.Canceled: %v", err)
		}
	})
}

// TestRunKernelWithCheckVerifies pins the fix for the old RunKernel gap:
// kernel runs now flow through the same helper as workload runs, so a
// provided check gates Verified.
func TestRunKernelWithCheckVerifies(t *testing.T) {
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

	checked := false
	rep, err := Run(context.Background(), WithConfig(SmallConfig()), WithKernel(as, l),
		WithCheck(func() error {
			checked = true
			for tid := uint64(0); tid < 32; tid++ {
				if got := as.Read64(out + tid*8); got != tid {
					return fmt.Errorf("out[%d] = %d", tid, got)
				}
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if !checked || !rep.Verified {
		t.Fatalf("check ran=%v verified=%v", checked, rep.Verified)
	}
}

// TestRunRequiresExactlyOneSource checks the option-validation error.
func TestRunRequiresExactlyOneSource(t *testing.T) {
	if _, err := Run(context.Background(), WithConfig(SmallConfig())); err == nil {
		t.Fatal("no workload source accepted")
	}
	w, err := BuildWorkload("kmeans", SizeTiny, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), WithConfig(SmallConfig()),
		WithWorkload("bfs", SizeTiny), WithBuilt(w)); err == nil {
		t.Fatal("two workload sources accepted")
	}
}

// TestRunSurfacesFieldErrors checks config validation errors carry the
// typed field identity through the public entry point.
func TestRunSurfacesFieldErrors(t *testing.T) {
	cfg := SmallConfig()
	cfg.MMU = NaiveMMU(0) // zero ports
	_, err := Run(context.Background(), WithConfig(cfg), WithWorkload("bfs", SizeTiny))
	if err == nil {
		t.Fatal("invalid config ran")
	}
	var fe *config.FieldError
	if !errors.As(err, &fe) || fe.Field != "MMU.Ports" {
		t.Fatalf("not a FieldError naming MMU.Ports: %v", err)
	}
}
