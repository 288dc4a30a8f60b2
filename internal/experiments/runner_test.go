package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/workloads"
)

func workerHarness(workers int, ws ...string) (*Harness, *bytes.Buffer) {
	var buf bytes.Buffer
	h := New(&buf, Options{
		Size:     workloads.SizeTiny,
		Seed:     1,
		Machine:  config.SmallTest,
		Workload: ws,
		Workers:  workers,
	})
	return h, &buf
}

func TestPlanDedupesByCanonicalKey(t *testing.T) {
	h, _ := tinyHarness("bfs", "kmeans")
	p := NewPlan()
	naive := h.cfgWith(config.NaiveMMU(3))
	p.Add(h.Spec("bfs", naive))
	p.Add(h.Spec("bfs", naive)) // same spec again
	p.Add(h.Spec("kmeans", naive))
	p.Add(h.Spec("bfs", h.cfgNoTLB()))
	if p.Len() != 3 {
		t.Fatalf("plan has %d specs, want 3: %v", p.Len(), p.Specs())
	}
	// Two figures declaring overlapping matrices share the duplicates.
	p.Add(variantSpecs(h, []variant{{"naive", naive}}, true)...)
	if p.Len() != 4 { // only the kmeans baseline is new
		t.Fatalf("plan has %d specs after overlap, want 4", p.Len())
	}
}

func TestPlanDistinguishesConfigs(t *testing.T) {
	h, _ := tinyHarness("bfs")
	p := NewPlan()
	a := h.cfgWith(config.NaiveMMU(3))
	b := h.cfgWith(config.NaiveMMU(4))
	c := a
	c.MMU.Entries = 256
	p.Add(h.Spec("bfs", a), h.Spec("bfs", b), h.Spec("bfs", c))
	if p.Len() != 3 {
		t.Fatalf("distinct configs deduped: %d specs", p.Len())
	}
}

// TestDeterministicAcrossWorkers is the pipeline's core contract: a report
// rendered from a serial (-j 1) execution and from a parallel (-j 8) one
// must be byte-identical. It covers two full figures (fig2 spans the
// scheduler/TBC space, fig4 the latency stats) over two workloads, and
// also pins the fixed-seed reproducibility promise of internal/engine's
// RNG: same seed, same machine, same cycle counts on every run.
func TestDeterministicAcrossWorkers(t *testing.T) {
	figs := make([]Figure, 0, 2)
	for _, id := range []string{"fig2", "fig4"} {
		f, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, f)
	}
	render := func(workers int) string {
		h, buf := workerHarness(workers, "bfs", "kmeans")
		if err := RunFigures(h, figs); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("report differs between -j 1 and -j 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "bfs") || !strings.Contains(serial, "kmeans") {
		t.Fatal("report missing workload rows")
	}
}

// TestExecutorParallelMatchesInline cross-checks the worker pool against
// the inline path: the same spec executed by an 8-worker pool and by a
// lone executor's run in the calling goroutine must produce identical
// cycle counts.
func TestExecutorParallelMatchesInline(t *testing.T) {
	h, _ := workerHarness(8, "bfs")
	p := NewPlan()
	specs := []RunSpec{
		h.Spec("bfs", h.cfgNoTLB()),
		h.Spec("bfs", h.cfgWith(config.NaiveMMU(3))),
		h.Spec("bfs", h.cfgWith(config.AugmentedMMU())),
	}
	p.Add(specs...)
	if n := h.Execute(p); n != len(specs) {
		t.Fatalf("executed %d runs, want %d", n, len(specs))
	}
	for _, s := range specs {
		res, ok := h.Store().Get(s)
		if !ok || res.Err != nil {
			t.Fatalf("%s: missing or failed: %+v", s, res)
		}
		if res.Wall <= 0 {
			t.Errorf("%s: no wall time recorded", s)
		}
		inline := (&Executor{Size: workloads.SizeTiny, Seed: 1}).run(s)
		if inline.Err != nil {
			t.Fatal(inline.Err)
		}
		if inline.Stats.Cycles != res.Stats.Cycles {
			t.Errorf("%s: pool %d cycles, inline %d", s, res.Stats.Cycles, inline.Stats.Cycles)
		}
	}
	// Re-executing a satisfied plan is a no-op.
	if n := h.Execute(p); n != 0 {
		t.Fatalf("re-execute ran %d simulations", n)
	}
}

// TestExecuteObsSamplesAndPersists checks the executor's observability
// path: sampled series are returned on the result, the final row matches
// the run's statistics, the CSV artefact lands in the sample directory,
// and the observed run's cycle count is identical to an unobserved one.
func TestExecuteObsSamplesAndPersists(t *testing.T) {
	dir := t.TempDir()
	h, _ := workerHarness(1, "bfs")
	spec := h.Spec("bfs", h.cfgWith(config.AugmentedMMU()))
	ob := ObsOptions{SampleEvery: 200, SampleDir: dir, Watchdog: 10_000_000, MaxCycles: 50_000_000}
	res := (&Executor{Size: workloads.SizeTiny, Seed: 1, Obs: ob}).run(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Series) == 0 {
		t.Fatal("no series recorded")
	}
	last := res.Series[len(res.Series)-1]
	if last.Cycle != res.Stats.Cycles || last.Instructions != res.Stats.Instructions.Value() {
		t.Errorf("final sample (%d cyc, %d instr) != stats (%d cyc, %d instr)",
			last.Cycle, last.Instructions, res.Stats.Cycles, res.Stats.Instructions.Value())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !strings.HasPrefix(ents[0].Name(), "bfs-") || !strings.HasSuffix(ents[0].Name(), ".csv") {
		t.Fatalf("unexpected sample artefacts: %v", ents)
	}
	body, err := os.ReadFile(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(body), "cycle,") {
		t.Fatalf("CSV missing header:\n%.120s", body)
	}

	plain := (&Executor{Size: workloads.SizeTiny, Seed: 1}).run(spec)
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}
	if plain.Stats.Cycles != res.Stats.Cycles {
		t.Errorf("observability perturbed timing: %d vs %d cycles", res.Stats.Cycles, plain.Stats.Cycles)
	}
	if plain.Series != nil {
		t.Error("unobserved run grew a series")
	}
}

// TestConcurrentHarnessRuns hammers Harness.Run from many goroutines over
// overlapping specs so `go test -race` has real sharing to bite on.
func TestConcurrentHarnessRuns(t *testing.T) {
	h, _ := workerHarness(4, "bfs", "kmeans")
	cfgs := []config.Hardware{
		h.cfgNoTLB(),
		h.cfgWith(config.NaiveMMU(3)),
		h.cfgWith(config.AugmentedMMU()),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	cycles := make([][]uint64, 24)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, w := range []string{"bfs", "kmeans"} {
				for _, cfg := range cfgs {
					st, err := h.Run(w, cfg)
					if err != nil {
						errs <- err
						return
					}
					cycles[i] = append(cycles[i], st.Cycles)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 1; i < len(cycles); i++ {
		for j := range cycles[0] {
			if cycles[i][j] != cycles[0][j] {
				t.Fatalf("goroutine %d saw different cycles for run %d: %d vs %d",
					i, j, cycles[i][j], cycles[0][j])
			}
		}
	}
	if h.Store().Len() != len(cfgs)*2 {
		t.Fatalf("store holds %d results, want %d", h.Store().Len(), len(cfgs)*2)
	}
}

// TestFailedSpecDoesNotAbortReport checks the error-isolation contract: a
// spec that cannot run (unknown workload here, a gpu deadlock in the wild)
// fails only the figures that need it, while every other figure still
// renders and the failure names the spec.
func TestFailedSpecDoesNotAbortReport(t *testing.T) {
	h, buf := workerHarness(2, "bfs")
	naive := h.cfgWith(config.NaiveMMU(3))
	bad := Figure{
		ID: "figBAD", Title: "doomed", Paper: "n/a",
		Plan: func(h *Harness) []RunSpec {
			return []RunSpec{h.Spec("no-such-workload", naive)}
		},
		Run: func(h *Harness) (string, error) {
			_, err := h.Run("no-such-workload", naive)
			return "", err
		},
	}
	good, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	runErr := RunFigures(h, []Figure{bad, good})
	if runErr == nil {
		t.Fatal("failed spec reported no error")
	}
	if !strings.Contains(runErr.Error(), "no-such-workload") {
		t.Fatalf("error does not name the failing spec: %v", runErr)
	}
	out := buf.String()
	if !strings.Contains(out, "## fig4") || !strings.Contains(out, "ratio") {
		t.Fatalf("healthy figure missing from report:\n%s", out)
	}
	if !strings.Contains(out, "ERROR:") {
		t.Fatalf("failed figure not marked in report:\n%s", out)
	}
	res, ok := h.Store().Get(h.Spec("no-such-workload", naive))
	if !ok || res.Err == nil {
		t.Fatal("failure not captured in the result store")
	}
}

// TestProgressSerialised checks verbose progress goes to the progress
// writer (never into the report) and counts every planned run.
func TestProgressSerialised(t *testing.T) {
	var progress bytes.Buffer
	var report bytes.Buffer
	h := New(&report, Options{
		Size:     workloads.SizeTiny,
		Seed:     1,
		Machine:  config.SmallTest,
		Workload: []string{"bfs"},
		Workers:  4,
		Verbose:  true,
		Progress: &progress,
	})
	f, err := ByID("fig7")
	if err != nil {
		t.Fatal(err)
	}
	if err := RunFigures(h, []Figure{f}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(report.String(), "# [") || strings.Contains(report.String(), "# plan:") {
		t.Fatal("progress lines leaked into the report")
	}
	lines := strings.Split(strings.TrimSpace(progress.String()), "\n")
	ran := 0
	for _, l := range lines {
		if strings.Contains(l, "] ran ") {
			ran++
			if !strings.HasPrefix(l, "# [") {
				t.Fatalf("malformed progress line %q", l)
			}
		}
	}
	if want := h.Store().Len(); ran != want {
		t.Fatalf("progress reported %d runs, store holds %d", ran, want)
	}
}
