package gpu

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpummu/internal/config"
	"gpummu/internal/kernels"
	"gpummu/internal/obs"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

// traceRun runs the tiny bfs workload on the given MMU with a Chrome tracer
// and sampler attached under the given worker count, returning the raw
// trace bytes and the run's statistics.
func traceRun(t *testing.T, mmu config.MMU, workers int) ([]byte, *stats.Sim) {
	t.Helper()
	cfg := config.SmallTest()
	cfg.MMU = mmu
	w, err := workloads.Build("bfs", workloads.SizeTiny, cfg.PageShift, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.Sim{}
	g, err := New(cfg, w.AS, st)
	if err != nil {
		t.Fatal(err)
	}
	g.MaxCycles = 50_000_000
	g.Workers = workers
	g.Sampler = obs.NewSampler(100, 0)
	var buf bytes.Buffer
	ct := NewChromeTracer(&buf, cfg.NumCores)
	g.SetTracer(ct)
	if _, err := g.Run(w.Launch); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Check(); err != nil {
		t.Fatalf("workers=%d functional check: %v", workers, err)
	}
	return buf.Bytes(), st
}

// TestChromeTraceGoldenAcrossPar pins the determinism contract of the
// tracing path: the same workload produces byte-identical, schema-valid
// Chrome trace JSON for any -par worker count.
func TestChromeTraceGoldenAcrossPar(t *testing.T) {
	golden, _ := traceRun(t, config.AugmentedMMU(), 1)

	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Pid  *int    `json:"pid"`
			Tid  *int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(golden, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	kinds := map[string]int{}
	for i, e := range doc.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.Pid == nil || e.Tid == nil {
			t.Fatalf("event %d missing required fields: %+v", i, e)
		}
		kinds[e.Ph]++
	}
	for _, ph := range []string{"M", "i", "X", "C"} {
		if kinds[ph] == 0 {
			t.Fatalf("trace has no %q events (got %v)", ph, kinds)
		}
	}

	for _, workers := range []int{2, 8} {
		got, _ := traceRun(t, config.AugmentedMMU(), workers)
		if !bytes.Equal(golden, got) {
			t.Fatalf("trace bytes differ between workers=1 (%d bytes) and workers=%d (%d bytes)",
				len(golden), workers, len(got))
		}
	}
}

// TestChromeTraceGoldenNaive pins the Chrome trace of bfs/tiny on the
// blocking naive MMU byte-for-byte against a committed (gzipped) file, at
// every -par worker count. Cores spend most of this run behind the memory
// gate, so the file pins every gated issue attempt's event. Regenerate only
// for intentional timing-model changes, with
//
//	go test ./internal/gpu -run TestChromeTraceGoldenNaive -update-golden
func TestChromeTraceGoldenNaive(t *testing.T) {
	path := filepath.Join("testdata", "trace_bfs_naive.json.gz")
	for _, workers := range []int{1, 2, 8} {
		got, _ := traceRun(t, config.NaiveMMU(3), workers)
		if *updateGolden && workers == 1 {
			var gz bytes.Buffer
			zw := gzip.NewWriter(&gz)
			if _, err := zw.Write(got); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, gz.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := readGzip(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update-golden): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: trace (%d bytes) differs from %s (%d bytes)",
				workers, len(got), path, len(want))
		}
	}
}

// readGzip returns the decompressed contents of a gzipped file.
func readGzip(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// TestSamplerFinalRowMatchesReport checks the forced end-of-run sample:
// its cumulative columns must equal the merged end-of-run statistics.
func TestSamplerFinalRowMatchesReport(t *testing.T) {
	_, st := func() (*obs.Sampler, *stats.Sim) {
		cfg := config.SmallTest()
		cfg.MMU = config.AugmentedMMU()
		w, err := workloads.Build("bfs", workloads.SizeTiny, cfg.PageShift, 7)
		if err != nil {
			t.Fatal(err)
		}
		st := &stats.Sim{}
		g, err := New(cfg, w.AS, st)
		if err != nil {
			t.Fatal(err)
		}
		g.MaxCycles = 50_000_000
		g.Sampler = obs.NewSampler(100, 0)
		if _, err := g.Run(w.Launch); err != nil {
			t.Fatal(err)
		}
		last, ok := g.Sampler.Last()
		if !ok {
			t.Fatal("sampler recorded nothing")
		}
		for _, c := range [...]struct {
			name string
			got  uint64
			want uint64
		}{
			{"cycle", last.Cycle, st.Cycles},
			{"instructions", last.Instructions, st.Instructions.Value()},
			{"memInstrs", last.MemInstrs, st.MemInstrs.Value()},
			{"tlbAccesses", last.TLBAccesses, st.TLBAccesses.Value()},
			{"tlbMisses", last.TLBMisses, st.TLBMisses.Value()},
			{"l1Accesses", last.L1Accesses, st.L1Accesses.Value()},
			{"l2Accesses", last.L2Accesses, st.L2Accesses.Value()},
			{"walks", last.Walks, st.Walks.Value()},
		} {
			if c.got != c.want {
				t.Errorf("final sample %s = %d, report says %d", c.name, c.got, c.want)
			}
		}
		if last.LiveBlocks != 0 || last.ActiveWarps != 0 {
			t.Errorf("final sample still has live work: %+v", last)
		}
		if g.Sampler.Total() < 2 {
			t.Errorf("expected multiple samples, got %d", g.Sampler.Total())
		}
		return g.Sampler, st
	}()
	_ = st
}

// TestMetricsRegistryExactAcrossPar checks that the labelled registry's
// per-core breakdown sums to the flat report and is identical for serial
// and parallel runs.
func TestMetricsRegistryExactAcrossPar(t *testing.T) {
	run := func(workers int) (*obs.Registry, *stats.Sim) {
		cfg := config.SmallTest()
		cfg.MMU = config.AugmentedMMU()
		w, err := workloads.Build("kmeans", workloads.SizeTiny, cfg.PageShift, 7)
		if err != nil {
			t.Fatal(err)
		}
		st := &stats.Sim{}
		g, err := New(cfg, w.AS, st)
		if err != nil {
			t.Fatal(err)
		}
		g.MaxCycles = 50_000_000
		g.Workers = workers
		g.Metrics = obs.NewRegistry()
		if _, err := g.Run(w.Launch); err != nil {
			t.Fatal(err)
		}
		return g.Metrics, st
	}
	reg, st := run(1)
	cfg := config.SmallTest()
	var perCore, perWalker uint64
	for i := 0; i < cfg.NumCores; i++ {
		if m, ok := reg.Lookup(obs.Name("core.instructions", obs.LabelInt("core", i))); ok {
			perCore += m.Value()
		}
		for wi := 0; ; wi++ {
			m, ok := reg.Lookup(obs.Name("walker.walks", obs.LabelInt("core", i), obs.LabelInt("walker", wi)))
			if !ok {
				break
			}
			perWalker += m.Value()
		}
	}
	if perCore != st.Instructions.Value() {
		t.Errorf("per-core instructions sum %d != report %d", perCore, st.Instructions.Value())
	}
	if perWalker != st.Walks.Value() {
		t.Errorf("per-walker walks sum %d != report %d", perWalker, st.Walks.Value())
	}

	regPar, _ := run(4)
	var a, b strings.Builder
	if err := reg.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := regPar.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("registry dump differs between workers=1 and workers=4:\n%s---\n%s", a.String(), b.String())
	}
}

// spinLaunch builds a kernel that loops forever — runnable every cycle, so
// it is a livelock (not a deadlock) and only the watchdog can catch it.
func spinLaunch(t *testing.T) *kernels.Launch {
	t.Helper()
	b := kernels.NewBuilder("spin")
	b.Label("top")
	b.Jmp("top")
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &kernels.Launch{Program: prog, Grid: 1, BlockDim: 32}
}

// TestWatchdogCatchesLivelock runs a deliberately livelocked kernel and
// asserts the typed abort with its diagnostic dump.
func TestWatchdogCatchesLivelock(t *testing.T) {
	g, _, _ := buildGPU(t, config.SmallTest())
	g.WatchdogWindow = 50_000
	_, err := g.Run(spinLaunch(t))
	if err == nil {
		t.Fatal("livelocked kernel finished?!")
	}
	if !errors.Is(err, obs.ErrLivelock) {
		t.Fatalf("error is not ErrLivelock: %v", err)
	}
	var ae *obs.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an AbortError: %v", err)
	}
	if ae.Cycle < 50_000 {
		t.Errorf("aborted before the window elapsed: cycle %d", ae.Cycle)
	}
	if !strings.Contains(ae.Dump, "core 0") || !strings.Contains(ae.Dump, "block 0") {
		t.Errorf("dump missing core/warp state:\n%s", ae.Dump)
	}
	if !strings.Contains(err.Error(), "window=50000") {
		t.Errorf("message missing watchdog context: %v", err)
	}
}

// TestMaxCyclesTypedError checks the cycle-budget guard produces the typed
// sentinel instead of a bare formatted error.
func TestMaxCyclesTypedError(t *testing.T) {
	g, _, _ := buildGPU(t, config.SmallTest())
	g.MaxCycles = 10_000
	_, err := g.Run(spinLaunch(t))
	if !errors.Is(err, obs.ErrMaxCycles) {
		t.Fatalf("error is not ErrMaxCycles: %v", err)
	}
}

// TestDeadlineAborts checks the wall-clock deadline fires on the prune
// cadence with the typed sentinel.
func TestDeadlineAborts(t *testing.T) {
	g, _, _ := buildGPU(t, config.SmallTest())
	g.Deadline = time.Now().Add(-time.Second)
	_, err := g.Run(spinLaunch(t))
	if !errors.Is(err, obs.ErrDeadline) {
		t.Fatalf("error is not ErrDeadline: %v", err)
	}
}

// TestContextCancelAborts checks a cancelled context stops the run with the
// context's error as the abort cause.
func TestContextCancelAborts(t *testing.T) {
	g, _, _ := buildGPU(t, config.SmallTest())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g.Ctx = ctx
	_, err := g.Run(spinLaunch(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error is not context.Canceled: %v", err)
	}
	var ae *obs.AbortError
	if !errors.As(err, &ae) || ae.Dump == "" {
		t.Fatalf("cancellation lost its diagnostic dump: %v", err)
	}
}

// TestProgressCallback checks the periodic progress hook fires with
// monotonic cycles.
func TestProgressCallback(t *testing.T) {
	g, _, _ := buildGPU(t, config.SmallTest())
	g.MaxCycles = 300_000
	g.ProgressEvery = 1 << 14
	var calls []obs.Progress
	g.Progress = func(p obs.Progress) { calls = append(calls, p) }
	_, err := g.Run(spinLaunch(t))
	if !errors.Is(err, obs.ErrMaxCycles) {
		t.Fatalf("unexpected end: %v", err)
	}
	if len(calls) < 2 {
		t.Fatalf("progress fired %d times over 300k cycles at 16k cadence", len(calls))
	}
	for i := 1; i < len(calls); i++ {
		if calls[i].Cycle <= calls[i-1].Cycle {
			t.Fatalf("progress cycles not monotonic: %v", calls)
		}
		if calls[i].Instructions < calls[i-1].Instructions {
			t.Fatalf("progress instructions regressed: %v", calls)
		}
	}
}
