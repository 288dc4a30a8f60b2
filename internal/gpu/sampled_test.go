package gpu

import (
	"reflect"
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/ref"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

func TestSamplePlanParse(t *testing.T) {
	p, err := ParseSamplePlan("1000,5000,50000")
	if err != nil {
		t.Fatal(err)
	}
	want := SamplePlan{Warmup: 1000, Detail: 5000, FastForward: 50000}
	if p != want {
		t.Fatalf("got %+v want %+v", p, want)
	}
	if p.String() != "1000,5000,50000" {
		t.Fatalf("String: got %q", p.String())
	}
	if !p.Enabled() {
		t.Fatal("parsed plan should be enabled")
	}
	warm, err := ParseSamplePlan("1000,5000,50000,warm")
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmTLB || warm.String() != "1000,5000,50000,warm" {
		t.Fatalf("warm plan: got %+v (%q)", warm, warm.String())
	}
	for _, bad := range []string{"", "1,2", "1,2,3,4", "1,2,3,cold", "a,b,c", "0,0,5", "0,5,0", "1,-2,3"} {
		if _, err := ParseSamplePlan(bad); err == nil {
			t.Fatalf("ParseSamplePlan(%q) should fail", bad)
		}
	}
	if (SamplePlan{}).Enabled() {
		t.Fatal("zero plan must be disabled")
	}
	if err := (SamplePlan{}).Validate(); err != nil {
		t.Fatalf("zero plan must validate: %v", err)
	}
}

// samplePlanSmall is sized for the small workloads under config.SmallTest
// (resident capacity 4 blocks, grids of a few hundred): windows long enough
// to observe full residency turnovers, fast-forward long enough to engage.
var samplePlanSmall = SamplePlan{Warmup: 1000, Detail: 4000, FastForward: 40000}

// runSampledOnce builds the workload fresh and runs it under the plan,
// returning the sampled stats, the end-of-run digests, and the sink.
func runSampledOnce(t *testing.T, name string, size workloads.Size, plan SamplePlan) (*stats.Sampled, *stats.Sim, uint64, uint64) {
	t.Helper()
	cfg := config.SmallTest()
	cfg.MMU = config.AugmentedMMU()
	w, err := workloads.Build(name, size, cfg.PageShift, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.Sim{}
	g, err := New(cfg, w.AS, st)
	if err != nil {
		t.Fatal(err)
	}
	g.MaxCycles = 200_000_000
	_, smp, err := g.RunSampled(w.Launch, plan)
	if err != nil {
		t.Fatalf("%s sampled: %v", name, err)
	}
	if err := w.Check(); err != nil {
		t.Fatalf("%s sampled functional check: %v", name, err)
	}
	return smp, st, ref.MemDigest(w.AS), ref.PageTableDigest(w.AS.Mem, w.AS.PT.CR3())
}

// TestRunSampledExactArchitecturalState is the tentpole's correctness pin:
// a sampled run must leave memory and page tables byte-identical to a full
// detailed run of the same build, and the workload's functional check must
// pass — fast-forward advances architectural state exactly. Grids too small
// for the steady-state retire slope to mature (pathfinder/tiny fits on the
// cores whole; bfs/tiny retires fewer blocks than maturity needs) must
// degrade to exact execution, not guess.
func TestRunSampledExactArchitecturalState(t *testing.T) {
	cases := []struct {
		name string
		size workloads.Size
		ff   bool
	}{
		{"bfs", workloads.SizeSmall, true},
		{"memcached", workloads.SizeSmall, true},
		{"bfs", workloads.SizeTiny, false},
		{"pathfinder", workloads.SizeTiny, false},
	}
	for _, tc := range cases {
		cfg := config.SmallTest()
		cfg.MMU = config.AugmentedMMU()
		w, err := workloads.Build(tc.name, tc.size, cfg.PageShift, 7)
		if err != nil {
			t.Fatal(err)
		}
		st := &stats.Sim{}
		g, err := New(cfg, w.AS, st)
		if err != nil {
			t.Fatal(err)
		}
		g.MaxCycles = 200_000_000
		if _, err := g.Run(w.Launch); err != nil {
			t.Fatalf("%s exact: %v", tc.name, err)
		}
		exactMem := ref.MemDigest(w.AS)
		exactPT := ref.PageTableDigest(w.AS.Mem, w.AS.PT.CR3())

		smp, _, mem, pt := runSampledOnce(t, tc.name, tc.size, samplePlanSmall)
		if mem != exactMem {
			t.Errorf("%s/%s: sampled MemDigest %#x != exact %#x", tc.name, tc.size, mem, exactMem)
		}
		if pt != exactPT {
			t.Errorf("%s/%s: sampled PageTableDigest %#x != exact %#x", tc.name, tc.size, pt, exactPT)
		}
		if (smp.FFBlocks > 0) != tc.ff {
			t.Errorf("%s/%s: FFBlocks=%d, expected fast-forward=%v", tc.name, tc.size, smp.FFBlocks, tc.ff)
		}
		if smp.FFBlocks > smp.TotalBlocks {
			t.Errorf("%s/%s: fast-forwarded %d of %d blocks", tc.name, tc.size, smp.FFBlocks, smp.TotalBlocks)
		}
	}
}

// TestRunSampledWarmTLBExactState pins that the opt-in TLB warming mode
// (touch replay into the TLB hierarchy) changes timing only: architectural
// state stays byte-identical to the exact run.
func TestRunSampledWarmTLBExactState(t *testing.T) {
	cfg := config.SmallTest()
	cfg.MMU = config.AugmentedMMU()
	w, err := workloads.Build("bfs", workloads.SizeSmall, cfg.PageShift, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.Sim{}
	g, err := New(cfg, w.AS, st)
	if err != nil {
		t.Fatal(err)
	}
	g.MaxCycles = 200_000_000
	if _, err := g.Run(w.Launch); err != nil {
		t.Fatal(err)
	}
	exactMem := ref.MemDigest(w.AS)

	warm := samplePlanSmall
	warm.WarmTLB = true
	smp, _, mem, _ := runSampledOnce(t, "bfs", workloads.SizeSmall, warm)
	if mem != exactMem {
		t.Errorf("warm sampled MemDigest %#x != exact %#x", mem, exactMem)
	}
	if smp.FFBlocks == 0 {
		t.Error("warm plan did not fast-forward")
	}
}

// TestRunSampledDeterministic pins that the sampled result — every
// interval, every estimate, and the end-of-run digests — is identical when
// the same sampled run is repeated: detailed segment boundaries and
// fast-forward choices are pure functions of simulation state.
func TestRunSampledDeterministic(t *testing.T) {
	first, _, firstMem, firstPT := runSampledOnce(t, "bfs", workloads.SizeSmall, samplePlanSmall)
	smp, _, mem, pt := runSampledOnce(t, "bfs", workloads.SizeSmall, samplePlanSmall)
	if !reflect.DeepEqual(smp, first) {
		t.Error("repeated sampled run produced different sampled stats")
	}
	if smp.Summary() != first.Summary() {
		t.Errorf("summary differs:\n%s\nvs\n%s", smp.Summary(), first.Summary())
	}
	if mem != firstMem || pt != firstPT {
		t.Error("repeated sampled run produced different digests")
	}
}

// TestRunSampledEstimates sanity-checks the extrapolation on a small run:
// instruction and cycle estimates within loose bounds of exact, detailed
// cycles strictly fewer than exact, and the zero plan rejected.
func TestRunSampledEstimates(t *testing.T) {
	cfg := config.SmallTest()
	cfg.MMU = config.AugmentedMMU()
	w, err := workloads.Build("bfs", workloads.SizeSmall, cfg.PageShift, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.Sim{}
	g, err := New(cfg, w.AS, st)
	if err != nil {
		t.Fatal(err)
	}
	g.MaxCycles = 200_000_000
	exactCycles, err := g.Run(w.Launch)
	if err != nil {
		t.Fatal(err)
	}
	exactInstrs := st.Instructions.Value()

	smp, sst, _, _ := runSampledOnce(t, "bfs", workloads.SizeSmall, samplePlanSmall)
	estInstr := smp.EstimatedInstructions()
	if rel := estInstr.RelErr(float64(exactInstrs)); rel > 0.25 {
		t.Errorf("estimated instructions %.0f vs exact %d: relative error %.1f%% > 25%%",
			estInstr.Value, exactInstrs, 100*rel)
	}
	if sst.Cycles != smp.DetailCycles {
		t.Errorf("Sim.Cycles %d != DetailCycles %d", sst.Cycles, smp.DetailCycles)
	}
	if smp.DetailCycles >= exactCycles {
		t.Errorf("sampled run simulated %d detailed cycles, not fewer than exact %d",
			smp.DetailCycles, exactCycles)
	}
	est := smp.EstimatedCycles()
	if est.Value <= 0 {
		t.Fatalf("estimated cycles %v", est)
	}
	rel := est.RelErr(float64(exactCycles))
	if rel > 0.25 {
		t.Errorf("estimated cycles %.0f vs exact %d: relative error %.1f%% > 25%%",
			est.Value, exactCycles, 100*rel)
	}
	if smp.DetailFraction() >= 1 {
		t.Errorf("detail fraction %.3f: nothing was fast-forwarded", smp.DetailFraction())
	}

	// RunSampled without a plan is an error; a disabled plan never validates
	// as runnable.
	if _, _, err := g.RunSampled(w.Launch, SamplePlan{}); err == nil {
		t.Fatal("RunSampled with zero plan should fail")
	}
}
