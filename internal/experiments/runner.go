// Run planning and parallel execution for the experiment pipeline.
//
// The pipeline has three phases:
//
//  1. Plan: each figure declares its (workload, config) matrix as RunSpec
//     values; specs from all requested figures are collected into a Plan,
//     which dedupes them by the canonical config.Hardware.Key.
//  2. Execute: an Executor runs the unique specs on a pool of -j worker
//     goroutines. Every worker builds its own workload and GPU, so no
//     simulator state is shared; results (statistics, wall time, errors)
//     are published into a concurrency-safe ResultStore. Progress lines
//     are serialised through one mutex so verbose output never interleaves.
//  3. Render: figures format their tables purely from completed results.
//     Because each simulation is deterministic (fixed-seed RNG, see
//     internal/engine) and rendering happens after the barrier in plan
//     order, the report is byte-identical regardless of worker count or
//     completion order.
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gpummu/internal/config"
	"gpummu/internal/gpu"
	"gpummu/internal/obs"
	"gpummu/internal/snapshot"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

// RunSpec names one simulation: a workload under a hardware configuration.
// Specs are value types; two specs are the same run iff their Keys match.
type RunSpec struct {
	Workload string
	Config   config.Hardware
}

// Key canonically identifies the run for dedup and result lookup.
func (s RunSpec) Key() string { return s.Workload + "|" + s.Config.Key() }

// String renders the spec the way progress and error messages show runs.
func (s RunSpec) String() string {
	return fmt.Sprintf("%s [%s]", s.Workload, describe(s.Config))
}

// Plan is an ordered, deduplicated collection of runs to execute. Adding a
// spec whose key is already present is a no-op, so figures can declare
// overlapping matrices (e.g. the shared no-TLB baseline) freely.
type Plan struct {
	specs []RunSpec
	seen  map[string]bool
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{seen: make(map[string]bool)} }

// Add appends the specs not already planned, in order.
func (p *Plan) Add(specs ...RunSpec) {
	for _, s := range specs {
		k := s.Key()
		if p.seen[k] {
			continue
		}
		p.seen[k] = true
		p.specs = append(p.specs, s)
	}
}

// Specs returns the planned runs in insertion order.
func (p *Plan) Specs() []RunSpec { return append([]RunSpec(nil), p.specs...) }

// Len returns the number of unique planned runs.
func (p *Plan) Len() int { return len(p.specs) }

// RunResult is the outcome of executing one RunSpec.
type RunResult struct {
	Spec   RunSpec
	Stats  *stats.Sim    // nil when Err != nil
	Series []obs.Sample  // cycle-sampled time series; nil unless sampling was on
	Wall   time.Duration // host wall time the simulation took
	Err    error         // simulation or functional-check failure

	// Sampled holds the interval-sampling record when the run executed
	// under a sample plan (nil for exact runs). Stats.Cycles and
	// Stats.Instructions are then the rounded whole-run estimates — so
	// speedup columns extrapolate — while the remaining counters cover the
	// measured windows only (their ratios are the sampled estimators).
	Sampled *stats.Sampled
}

// Results is the executor's result source and sink: where completed runs
// are published and where dedup lookups go before anything simulates. The
// in-process implementation is ResultStore; the job server substitutes a
// store-backed implementation whose Get also consults a durable result
// store, so results computed by an earlier process (or another client) are
// never recomputed. Implementations must be safe for concurrent use and
// write-once per key: the first Put for a spec wins.
type Results interface {
	// Get returns the completed result for spec, if present.
	Get(spec RunSpec) (*RunResult, bool)
	// Put publishes a completed result; the first write for a key wins.
	Put(res *RunResult)
	// Len returns the number of stored results.
	Len() int
	// Failed returns the failed results in no particular order.
	Failed() []*RunResult
}

// ResultStore is a concurrency-safe map from spec key to result. Results
// are write-once: the first publication wins and later ones are dropped,
// so a stored result never changes underneath a reader.
type ResultStore struct {
	mu sync.RWMutex
	m  map[string]*RunResult
}

// NewResultStore returns an empty store.
func NewResultStore() *ResultStore {
	return &ResultStore{m: make(map[string]*RunResult)}
}

// Get returns the completed result for spec, if present.
func (r *ResultStore) Get(spec RunSpec) (*RunResult, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	res, ok := r.m[spec.Key()]
	return res, ok
}

// Put publishes a completed result; the first write for a key wins.
func (r *ResultStore) Put(res *RunResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := res.Spec.Key()
	if _, dup := r.m[k]; dup {
		return
	}
	r.m[k] = res
}

// Len returns the number of stored results.
func (r *ResultStore) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}

// Failed returns the failed results in no particular order.
func (r *ResultStore) Failed() []*RunResult {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*RunResult
	for _, res := range r.m {
		if res.Err != nil {
			out = append(out, res)
		}
	}
	return out
}

// ObsOptions configures optional per-run observability for executor runs.
// The zero value disables everything, keeping the classic behaviour (and
// the simulator's zero-allocation warm path) untouched.
type ObsOptions struct {
	SampleEvery uint64 // cycles between time-series rows; 0 disables sampling
	SampleDir   string // when set, each run's series is written there as CSV
	Watchdog    uint64 // cycles without block retirement before abort; 0 disables
	MaxCycles   uint64 // per-run cycle budget; 0 means unbounded
	// Deadline aborts any run still simulating past this wall-clock
	// instant with a typed obs.ErrDeadline. The zero time disables it.
	Deadline time.Time

	// Progress, when non-nil, receives periodic heartbeats from every run,
	// labelled with the spec being simulated (concurrent runs call it from
	// their own goroutines — fan it out safely with obs.Funnel). The job
	// server bridges these callbacks onto its SSE event streams.
	Progress func(spec RunSpec, p obs.Progress)
	// ProgressEvery is the Progress cadence in cycles (0 picks the
	// simulator default; when SampleEvery is also set, matching it makes
	// the heartbeats line up with the sampler rows).
	ProgressEvery uint64
}

// Executor runs plans on a pool of worker goroutines.
type Executor struct {
	Workers  int            // goroutines; <= 0 means runtime.GOMAXPROCS(0)
	Size     workloads.Size // dataset scale for workload construction
	Seed     uint64         // workload generation seed
	Progress io.Writer      // per-run progress lines; nil for silent
	Store    Results        // destination; a fresh ResultStore when nil

	// Obs attaches samplers, watchdogs and cycle budgets to every run.
	Obs ObsOptions

	// Sampling, when enabled, executes every run under SMARTS-style
	// interval sampling (gpu.RunSampled) instead of exact simulation.
	// Results then carry the per-interval record in RunResult.Sampled and
	// extrapolated Cycles/Instructions totals in RunResult.Stats.
	Sampling gpu.SamplePlan

	// Checkpoint enables checkpointed warm starts: runs acquire their
	// workload from a snapshot.Pool keyed by build identity (workload,
	// size, page shift, seed) — the axes a hardware sweep holds fixed
	// while Hardware.Key() varies — so the N configs sharing one workload
	// restore a pristine image instead of rebuilding it N times. Output is
	// byte-identical to cold builds (DESIGN.md §14); the toggle exists so
	// sweeps can verify that cheaply (tools/ci.sh checkpoint gate).
	Checkpoint bool

	// Simulate, when non-nil, wraps the execution of every outstanding
	// spec: it receives the spec plus the executor's default runner and
	// returns the completed result. The job server installs a wrapper that
	// gates each simulation on a global slot budget shared by all
	// concurrently running jobs and coalesces identical in-flight specs
	// across them (DESIGN.md §16.5). nil runs the default directly. The
	// wrapper must be safe for concurrent calls from the worker pool.
	Simulate func(spec RunSpec, run func(RunSpec) *RunResult) *RunResult

	mu   sync.Mutex // serialises Progress so lines never interleave
	done int        // completed runs, for progress numbering
	pool *snapshot.Pool
}

// checkpointPool returns the executor's snapshot pool, creating it on
// first use. Safe for concurrent callers (Harness.Run's inline fallback).
func (e *Executor) checkpointPool() *snapshot.Pool {
	if !e.Checkpoint {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pool == nil {
		e.pool = snapshot.NewPool()
	}
	return e.pool
}

// CheckpointStats reports snapshot-pool activity (builds vs warm
// restores); zero when checkpointing is off or nothing ran yet.
func (e *Executor) CheckpointStats() snapshot.Stats {
	if e.pool == nil {
		return snapshot.Stats{}
	}
	return e.pool.Stats()
}

// workers resolves the effective pool size.
func (e *Executor) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// store resolves the destination store.
func (e *Executor) store() Results {
	if e.Store == nil {
		e.Store = NewResultStore()
	}
	return e.Store
}

// simulate executes one spec through the Simulate wrapper when one is
// installed, or the default runner otherwise. Both the worker pool and
// the harness's inline fallback come through here, so a scheduler-aware
// wrapper sees every simulation the executor ever starts.
func (e *Executor) simulate(spec RunSpec) *RunResult {
	if e.Simulate != nil {
		return e.Simulate(spec, e.run)
	}
	return e.run(spec)
}

// Execute runs every spec in the plan that the store has no result for
// yet, fanning the work across the executor's goroutine pool, and blocks
// until all of them have completed. Per-run failures are captured in the
// store (and logged to Progress), not returned: the caller decides whether
// a missing result is fatal, so one deadlocked spec cannot abort a whole
// report. The returned count is how many simulations actually ran.
func (e *Executor) Execute(p *Plan) int {
	st := e.store()
	var todo []RunSpec
	for _, s := range p.specs {
		if _, ok := st.Get(s); !ok {
			todo = append(todo, s)
		}
	}
	if len(todo) == 0 {
		return 0
	}
	nw := e.workers()
	if nw > len(todo) {
		nw = len(todo)
	}
	jobs := make(chan RunSpec)
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range jobs {
				res := e.simulate(spec)
				st.Put(res)
				e.logProgress(res, len(todo))
			}
		}()
	}
	for _, s := range todo {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	return len(todo)
}

// logProgress emits one serialised progress line for a completed run.
func (e *Executor) logProgress(res *RunResult, total int) {
	if e.Progress == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.done++
	if res.Err != nil {
		fmt.Fprintf(e.Progress, "# [%d/%d] FAILED %s: %v\n", e.done, total, res.Spec, res.Err)
		return
	}
	fmt.Fprintf(e.Progress, "# [%d/%d] ran %s in %v: %d cycles\n",
		e.done, total, res.Spec, res.Wall.Round(time.Millisecond), res.Stats.Cycles)
}

// run executes one spec to completion in the calling goroutine. It builds
// a private workload (or acquires one from the checkpoint pool, releasing
// it only after the functional check) and simulates it through Run, so
// concurrent calls share no simulator state. Under a sample plan the
// result's Stats.Cycles and Stats.Instructions become the rounded
// whole-run estimates; the remaining counters stay measured-window
// totals, whose ratios are the sampled estimators. The result's
// statistics are final and never mutated again (renderers receive
// clones).
func (e *Executor) run(spec RunSpec) *RunResult {
	res := &RunResult{Spec: spec}
	start := time.Now()
	defer func() { res.Wall = time.Since(start) }()

	var wl *workloads.Workload
	var err error
	if pool := e.checkpointPool(); pool != nil {
		var release func()
		wl, release, err = pool.Acquire(spec.Workload, e.Size, spec.Config.PageShift, e.Seed)
		if release != nil {
			defer release()
		}
	} else {
		wl, err = workloads.Build(spec.Workload, e.Size, spec.Config.PageShift, e.Seed)
	}
	if err != nil {
		res.Err = err
		return res
	}
	ob := e.Obs
	sim := Sim{
		Workload:  wl,
		Config:    spec.Config,
		Sampling:  e.Sampling,
		MaxCycles: ob.MaxCycles,
		Watchdog:  ob.Watchdog,
		Deadline:  ob.Deadline,
	}
	if ob.SampleEvery > 0 {
		sim.Sampler = obs.NewSampler(ob.SampleEvery, 0)
	}
	if ob.Progress != nil {
		sim.Progress = func(p obs.Progress) { ob.Progress(spec, p) }
		sim.ProgressEvery = ob.ProgressEvery
	}
	out, err := Run(context.Background(), sim)
	if sim.Sampler != nil {
		res.Series = sim.Sampler.Samples()
		if ob.SampleDir != "" {
			if werr := writeSeriesCSV(ob.SampleDir, spec, sim.Sampler); werr != nil && err == nil {
				err = werr
			}
		}
	}
	if err != nil {
		res.Err = err
		return res
	}
	if out.Sampled != nil {
		res.Sampled = out.Sampled
		out.Stats.Cycles = uint64(out.Sampled.EstimatedCycles().Value + 0.5)
		out.Stats.Instructions = stats.Counter(out.Sampled.EstimatedInstructions().Value + 0.5)
	}
	res.Stats = out.Stats
	return res
}

// writeSeriesCSV persists one run's sampled series under dir. The filename
// combines the workload name with a short hash of the spec's canonical key,
// so concurrent runs of the same workload under different configs never
// collide and reruns of the same spec overwrite their own artefact.
func writeSeriesCSV(dir string, spec RunSpec, smp *obs.Sampler) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sample dir: %w", err)
	}
	h := fnv.New64a()
	h.Write([]byte(spec.Key()))
	name := fmt.Sprintf("%s-%016x.csv", spec.Workload, h.Sum64())
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("sample series: %w", err)
	}
	if err := smp.WriteCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("sample series %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("sample series %s: %w", name, err)
	}
	return nil
}
