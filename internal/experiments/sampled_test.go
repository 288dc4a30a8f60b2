package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/gpu"
	"gpummu/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// samplePlanSmall is the validated plan for SizeSmall grids: long enough
// fast-forward windows to engage (small grids with shorter plans degrade to
// exact runs), short enough that the test stays quick.
var samplePlanSmall = gpu.SamplePlan{Warmup: 1000, Detail: 4000, FastForward: 40000}

// TestSampledAccuracyGate is the CI accuracy gate for interval sampling:
// on the paper's augmented MMU the sampled estimates of the sim_cycles
// -derived metrics (IPC and TLB miss rate) must agree with the exact run
// within 2%, and the end-of-run memory and page-table digests must be
// identical (fast-forward advanced architectural state exactly). Raw cycle
// counts are deliberately not gated — correlated ramp/drain bias partially
// cancels in the IPC ratio but not in the raw extrapolation (DESIGN.md
// section 15). The simulator is deterministic, so the observed errors are
// reproducible, not a statistical draw.
func TestSampledAccuracyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four small-size simulations")
	}
	cfg := config.Baseline()
	cfg.NumCores = 4
	cfg.MMU = config.AugmentedMMU()

	for _, w := range []string{"bfs", "memcached"} {
		r, err := CompareSampled(w, workloads.SizeSmall, cfg, 1, samplePlanSmall)
		if err != nil {
			t.Fatal(err)
		}
		// Guard against a vacuous pass: if nothing fast-forwards the
		// "sampled" run is the exact run and the gate tests nothing.
		if df := r.Sampled.DetailFraction(); df >= 1 {
			t.Errorf("%s: detail fraction %.3f — fast-forward never engaged", w, df)
		}
		if r.IPCErr > 0.02 {
			t.Errorf("%s: IPC error %.2f%% exceeds 2%% (exact %.4f, est %s)",
				w, 100*r.IPCErr, r.ExactIPC, r.EstIPC)
		}
		if r.MissErr > 0.02 {
			t.Errorf("%s: TLB miss-rate error %.2f%% exceeds 2%% (exact %.4f, est %s)",
				w, 100*r.MissErr, r.ExactMissRate, r.EstMissRate)
		}
		if !r.DigestMatch {
			t.Errorf("%s: end-of-run memory/page-table digests differ from the exact run", w)
		}
	}
}

// TestSampledReportGolden pins the sampled report against the committed
// golden (refresh with `go test ./internal/experiments -run
// SampledReportGolden -update`). The report excludes wall clock by design,
// so its bytes are a pure function of the simulated runs.
func TestSampledReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small-size simulations")
	}
	var buf bytes.Buffer
	h := New(&buf, Options{
		Size:     workloads.SizeSmall,
		Seed:     1,
		Machine:  config.SmallTest,
		Workload: []string{"bfs"},
	})
	body, err := SampledReport(h, samplePlanSmall)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(body)

	golden := filepath.Join("testdata", "sampled_report.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantGolden, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(want, wantGolden) {
		t.Errorf("sampled report drifted from golden (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", want, wantGolden)
	}
}

// BenchmarkSampledVsExact times the sampled-vs-exact trade on the
// configuration of gpusim's sampled-small golden: memcached at small size
// on 4 baseline cores with the augmented MMU, under samplePlanSmall. Each
// iteration builds, runs and checks one workload. The sampled
// sub-benchmark fails if fast-forward leaves memory or page tables that
// differ from the exact run's, and reports its IPC and TLB miss-rate
// errors against it.
func BenchmarkSampledVsExact(b *testing.B) {
	cfg := config.Baseline()
	cfg.NumCores = 4
	cfg.MMU = config.AugmentedMMU()
	run := func(b *testing.B, plan gpu.SamplePlan) digestedRun {
		r, err := runDigested("memcached", workloads.SizeSmall, cfg, 1, plan)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	var exact digestedRun
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exact = run(b, gpu.SamplePlan{})
		}
	})
	b.Run("sampled", func(b *testing.B) {
		var sampled digestedRun
		for i := 0; i < b.N; i++ {
			sampled = run(b, samplePlanSmall)
		}
		b.StopTimer()
		if exact.Outcome == nil { // -bench filtered out the exact sub-benchmark
			exact = run(b, gpu.SamplePlan{})
		}
		r := compareSampled("memcached", exact, sampled)
		if !r.DigestMatch {
			b.Fatal("end-of-run memory/page-table digests differ from the exact run")
		}
		b.ReportMetric(r.IPCErr, "ipc_err")
		b.ReportMetric(r.MissErr, "missrate_err")
	})
}
