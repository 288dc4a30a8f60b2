package difftest_test

import (
	"context"
	"fmt"
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/difftest"
	"gpummu/internal/engine"
)

// matrixSeedBase..matrixSeedBase+matrixSamples-1 are the seeds the
// differential matrix runs; TestGeneratorCoversMatrix asserts this same
// range spans every scheduler family, divergence mode, page size, worker
// count, and MMU class, so "the matrix passed" means "the design space was
// exercised".
const (
	matrixSeedBase = 1000
	matrixSamples  = 240
	matrixChunks   = 8
)

// TestDifferentialMatrix runs 240 seeded random samples through both the
// timing simulator and the reference model (ISSUE 5 acceptance: 200+
// samples across the scheduler/TLB matrix). Chunked subtests run in
// parallel to keep wall-clock down.
func TestDifferentialMatrix(t *testing.T) {
	perChunk := matrixSamples / matrixChunks
	for chunk := 0; chunk < matrixChunks; chunk++ {
		t.Run(fmt.Sprintf("chunk%02d", chunk), func(t *testing.T) {
			t.Parallel()
			base := uint64(matrixSeedBase + chunk*perChunk)
			for i := 0; i < perChunk; i++ {
				seed := base + uint64(i)
				s := difftest.Generate(seed)
				if err := s.Diff(context.Background()); err != nil {
					t.Errorf("%s: %v\nrepro:\n%s", s.Describe(), err, s.ReproSnippet())
				}
			}
		})
	}
}

// TestGeneratorCoversMatrix asserts the matrix seed range actually spans
// the design space the acceptance criterion names: every scheduler family,
// every divergence mode, both page sizes, and every MMU class (disabled,
// blocking, non-blocking, shared-TLB, PWC, ideal, software walks).
func TestGeneratorCoversMatrix(t *testing.T) {
	scheds := map[config.SchedulerPolicy]int{}
	tbcs := map[config.DivergenceMode]int{}
	shifts := map[uint]int{}
	mmus := map[string]int{}
	for seed := uint64(matrixSeedBase); seed < matrixSeedBase+matrixSamples; seed++ {
		s := difftest.Generate(seed)
		scheds[s.HW.Sched.Policy]++
		tbcs[s.HW.TBC.Mode]++
		shifts[s.HW.PageShift]++
		m := s.HW.MMU
		switch {
		case !m.Enabled:
			mmus["off"]++
		case m.IdealLatency:
			mmus["ideal"]++
		case m.SoftwareWalks:
			mmus["software"]++
		case m.SharedTLBEntries > 0:
			mmus["shared-tlb"]++
		case m.PWCEntries > 0:
			mmus["pwc"]++
		case m.HitsUnderMiss:
			mmus["augmented"]++
		default:
			mmus["naive"]++
		}
	}
	for _, p := range []config.SchedulerPolicy{config.SchedLRR, config.SchedGTO,
		config.SchedCCWS, config.SchedTACCWS, config.SchedTCWS} {
		if scheds[p] == 0 {
			t.Errorf("scheduler %s never generated in the matrix range", p)
		}
	}
	for _, m := range []config.DivergenceMode{config.DivStack, config.DivTBC, config.DivTLBTBC} {
		if tbcs[m] == 0 {
			t.Errorf("divergence mode %s never generated", m)
		}
	}
	for _, sh := range []uint{12, 21} {
		if shifts[sh] == 0 {
			t.Errorf("page shift %d never generated", sh)
		}
	}
	for _, class := range []string{"off", "ideal", "software", "shared-tlb", "pwc", "augmented", "naive"} {
		if mmus[class] == 0 {
			t.Errorf("MMU class %q never generated", class)
		}
	}
}

// TestGenerateDeterministic: the same seed must yield byte-identical
// programs and configs — the property every repro snippet relies on.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		a, b := difftest.Generate(seed), difftest.Generate(seed)
		if a.HW.Key() != b.HW.Key() {
			t.Fatalf("seed %d: configs differ:\n%s\n%s", seed, a.HW.Key(), b.HW.Key())
		}
		pa, err := a.Program()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pb, err := b.Program()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(pa.Code) != len(pb.Code) {
			t.Fatalf("seed %d: program lengths differ: %d vs %d", seed, len(pa.Code), len(pb.Code))
		}
		for i := range pa.Code {
			if pa.Code[i] != pb.Code[i] {
				t.Fatalf("seed %d: instr %d differs: %+v vs %+v", seed, i, pa.Code[i], pb.Code[i])
			}
		}
	}
}

// TestDropPreservesValidity: any random subset of dropped ops must still
// emit a well-formed program — the structural guarantee the minimiser
// leans on.
func TestDropPreservesValidity(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		s := difftest.Generate(seed)
		rng := engine.NewRNG(seed * 31)
		ids := s.AllOpIDs()
		for _, id := range ids {
			if rng.Intn(2) == 1 {
				s.Drop(id)
			}
		}
		if _, err := s.Program(); err != nil {
			t.Fatalf("seed %d with %d/%d ops dropped: %v", seed, len(ids)-len(s.AliveOpIDs()), len(ids), err)
		}
	}
}

// TestMinimiseGreedy drives the minimiser with a synthetic oracle that
// fails whenever one specific top-level op survives: the result must keep
// exactly that op and shrink the launch to a single tiny block.
func TestMinimiseGreedy(t *testing.T) {
	s := difftest.Generate(42)
	s.Grid, s.BlockDim = 4, 128
	ids := s.AllOpIDs()
	target := ids[0]
	fails := func(c *difftest.Sample) bool { return c.Alive(target) }

	min := difftest.Minimise(s, fails)
	if !fails(min) {
		t.Fatal("minimised sample no longer fails the oracle")
	}
	if min.Grid != 1 {
		t.Errorf("Grid = %d, want 1", min.Grid)
	}
	if min.BlockDim != 1 {
		t.Errorf("BlockDim = %d, want 1", min.BlockDim)
	}
	if alive := min.AliveOpIDs(); len(alive) != 1 || alive[0] != target {
		t.Errorf("alive ops = %v, want just [%d]", alive, target)
	}
	// The original sample must be untouched.
	if len(s.AliveOpIDs()) != len(ids) || s.Grid != 4 {
		t.Error("Minimise mutated its input sample")
	}
	// The minimised sample must still emit and replay.
	if _, err := min.Program(); err != nil {
		t.Fatalf("minimised sample does not emit: %v", err)
	}
	if err := min.Diff(context.Background()); err != nil {
		t.Fatalf("minimised sample fails the real oracle: %v", err)
	}
}
