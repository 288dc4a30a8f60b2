// The one place a simulation is assembled. The public gpummu.Run, the
// figure executor (and so gpusimd), gpusim and the sampled-vs-exact
// comparison all build their workload and then hand it to Run, so no two
// front ends can put a run together differently.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"gpummu/internal/config"
	"gpummu/internal/gpu"
	"gpummu/internal/obs"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

// Sim is one simulation ready to run: a built workload, the machine it
// runs on, and the run options. The zero value of every option leaves it
// off. A workload's kernels mutate its data, so a built workload serves
// one Run only (or one per restore from a snapshot.Pool).
type Sim struct {
	Workload *workloads.Workload
	Config   config.Hardware

	// Sampling, when enabled, runs the kernel under SMARTS-style interval
	// sampling (gpu.RunSampled) instead of exact simulation.
	Sampling gpu.SamplePlan
	// Invariants enables the debug-build invariant checker.
	Invariants bool
	MaxCycles  uint64    // cycle budget; 0 means unbounded
	Watchdog   uint64    // cycles without a block retiring before abort; 0 disables
	Deadline   time.Time // wall-clock abort; the zero time disables it

	Sampler *obs.Sampler  // time-series recorder
	Metrics *obs.Registry // labelled per-core/per-walker/per-slice breakdowns
	// Trace, when non-nil, receives a Chrome trace-event JSON document.
	// Run closes the document even when the run fails, so a partial trace
	// is still valid JSON; closing the writer itself is the caller's job.
	Trace io.Writer

	// Progress is called roughly every ProgressEvery cycles (0 picks the
	// simulator default).
	Progress      func(obs.Progress)
	ProgressEvery uint64
}

// Outcome is a completed, functionally checked simulation.
type Outcome struct {
	Stats  *stats.Sim
	Cycles uint64 // simulated cycles (the detailed cycles of a sampled run)
	// Sampled is the interval-sampling record of a sampled run (nil for
	// exact runs). Stats then covers the detailed windows only.
	Sampled *stats.Sampled
	Checked bool // the workload had a functional check, and it passed
}

// Run simulates s under ctx: it configures a GPU for s.Config, wires the
// options, runs the workload's launch (sampled when s.Sampling is
// enabled), closes the trace, and then runs the workload's functional
// check. A cancelled ctx aborts the run with an *obs.AbortError. Errors
// from configuring and running come back unwrapped; a failed check comes
// back as "functional check: ...".
func Run(ctx context.Context, s Sim) (*Outcome, error) {
	st := &stats.Sim{}
	g, err := gpu.New(s.Config, s.Workload.AS, st)
	if err != nil {
		return nil, err
	}
	g.Invariants = s.Invariants
	g.MaxCycles = s.MaxCycles
	g.WatchdogWindow = s.Watchdog
	g.Deadline = s.Deadline
	g.Sampler = s.Sampler
	g.Metrics = s.Metrics
	g.Progress = s.Progress
	g.ProgressEvery = s.ProgressEvery
	g.Ctx = ctx
	var tracer *gpu.ChromeTracer
	if s.Trace != nil {
		tracer = gpu.NewChromeTracer(s.Trace, s.Config.NumCores)
		g.SetTracer(tracer)
	}

	out := &Outcome{Stats: st}
	if s.Sampling.Enabled() {
		out.Cycles, out.Sampled, err = g.RunSampled(s.Workload.Launch, s.Sampling)
	} else {
		out.Cycles, err = g.Run(s.Workload.Launch)
	}
	if tracer != nil {
		if cerr := tracer.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("writing trace: %w", cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	if s.Workload.Check != nil {
		if err := s.Workload.Check(); err != nil {
			return nil, fmt.Errorf("functional check: %w", err)
		}
		out.Checked = true
	}
	return out, nil
}
