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

// traceRun runs a tiny workload on the given MMU with a Chrome tracer and
// sampler attached, returning the raw trace bytes and the run's statistics.
func traceRun(t *testing.T, name string, mmu config.MMU) ([]byte, *stats.Sim) {
	t.Helper()
	cfg := config.SmallTest()
	cfg.MMU = mmu
	w, err := workloads.Build(name, workloads.SizeTiny, cfg.PageShift, 7)
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
	var buf bytes.Buffer
	ct := NewChromeTracer(&buf, cfg.NumCores)
	g.SetTracer(ct)
	if _, err := g.Run(w.Launch); err != nil {
		t.Fatal(err)
	}
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Check(); err != nil {
		t.Fatalf("functional check: %v", err)
	}
	return buf.Bytes(), st
}

// TestChromeTraceGoldenAugmented pins the tracing path on the augmented
// MMU: the trace of memcached/tiny is schema-valid Chrome trace JSON and
// matches testdata/trace_memcached_augmented.json.gz byte for byte. With
// hits under miss, some cores walk while others miss in the L1 in the same
// step, so the walk spans' completion times pin the order in which walk
// and data references reach the shared L2 and DRAM.
func TestChromeTraceGoldenAugmented(t *testing.T) {
	got, _ := traceRun(t, "memcached", config.AugmentedMMU())
	checkTraceSchema(t, got)
	checkTraceGolden(t, got, "trace_memcached_augmented.json.gz")
}

// checkTraceSchema checks that a trace is Chrome trace-event JSON whose
// every event names its phase, process and thread, with metadata, instant,
// span and counter events all present.
func checkTraceSchema(t *testing.T, trace []byte) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Pid  *int    `json:"pid"`
			Tid  *int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
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
}

// TestChromeTraceGoldenNaive pins the Chrome trace of bfs/tiny on the
// blocking naive MMU byte-for-byte against a committed (gzipped) file.
// Cores spend most of this run behind the memory gate, so the file pins
// every gated issue attempt's event. Regenerate only for intentional
// timing-model changes, with
//
//	go test ./internal/gpu -run TestChromeTraceGolden -update-golden
func TestChromeTraceGoldenNaive(t *testing.T) {
	got, _ := traceRun(t, "bfs", config.NaiveMMU(3))
	checkTraceGolden(t, got, "trace_bfs_naive.json.gz")
}

// checkTraceGolden compares trace bytes with a gzipped file under
// testdata/, or rewrites the file under -update-golden.
func checkTraceGolden(t *testing.T, got []byte, file string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
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
		return
	}
	want, err := readGzip(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace (%d bytes) differs from %s (%d bytes)", len(got), path, len(want))
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

// TestMetricsRegistryExact checks that the labelled registry's per-core
// and per-walker breakdowns sum to the flat report.
func TestMetricsRegistryExact(t *testing.T) {
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
	g.Metrics = obs.NewRegistry()
	if _, err := g.Run(w.Launch); err != nil {
		t.Fatal(err)
	}
	reg := g.Metrics
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
