// Package gpummu reproduces Pichai, Hsu & Bhattacharjee, "Architectural
// Support for Address Translation on GPUs: Designing Memory Management
// Units for CPU/GPUs with Unified Address Spaces" (ASPLOS 2014), as a
// self-contained GPU timing simulator in pure Go.
//
// The public API wraps the internal simulator: pick a hardware
// configuration (Config), a workload (one of the paper's six, or your own
// kernel via the lower-level Launch path), run a Simulation, and read the
// Report. The MMU design space of the paper — TLB size/ports, blocking vs
// non-blocking miss handling, cache-overlapped translation, page table walk
// scheduling, CCWS/TA-CCWS/TCWS warp scheduling, and (TLB-aware) thread
// block compaction — is exposed through Config knobs.
//
// Quickstart:
//
//	cfg := gpummu.BaselineConfig()
//	cfg.MMU = gpummu.AugmentedMMU()
//	rep, err := gpummu.Run(ctx, gpummu.WithConfig(cfg),
//	    gpummu.WithWorkload("bfs", gpummu.SizeSmall))
//	fmt.Println(rep.Cycles, rep.TLBMissRate())
//
// Further options add observability: cycle-sampled time series, Chrome
// trace output, labelled metric breakdowns, watchdog and deadline guards:
//
//	rep, err := gpummu.Run(ctx,
//	    gpummu.WithConfig(cfg),
//	    gpummu.WithWorkload("bfs", gpummu.SizeSmall),
//	    gpummu.WithSampler(gpummu.NewSampler(1000, 0)),
//	    gpummu.WithTrace(traceFile),
//	    gpummu.WithWatchdog(5_000_000))
package gpummu

import (
	"context"
	"fmt"
	"io"
	"time"

	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/gpu"
	"gpummu/internal/kernels"
	"gpummu/internal/obs"
	"gpummu/internal/stats"
	"gpummu/internal/vm"
	"gpummu/internal/workloads"
)

// Config is the full machine configuration (hardware + policies).
type Config = config.Hardware

// MMUConfig configures the per-core TLB and page table walkers.
type MMUConfig = config.MMU

// SchedulerConfig configures warp scheduling and the CCWS family.
type SchedulerConfig = config.Scheduler

// TBCConfig configures thread block compaction.
type TBCConfig = config.TBC

// Size selects a workload dataset scale.
type Size = workloads.Size

// Dataset scales, re-exported from internal/workloads.
const (
	SizeTiny   = workloads.SizeTiny
	SizeSmall  = workloads.SizeSmall
	SizeMedium = workloads.SizeMedium
	SizeLarge  = workloads.SizeLarge
)

// Scheduler policies, re-exported from internal/config.
const (
	SchedLRR    = config.SchedLRR
	SchedGTO    = config.SchedGTO
	SchedCCWS   = config.SchedCCWS
	SchedTACCWS = config.SchedTACCWS
	SchedTCWS   = config.SchedTCWS
)

// Divergence handling modes, re-exported from internal/config.
const (
	DivStack  = config.DivStack
	DivTBC    = config.DivTBC
	DivTLBTBC = config.DivTLBTBC
)

// BaselineConfig returns the paper's section 5.2 machine with no TLB (the
// normalisation baseline for every figure).
func BaselineConfig() Config { return config.Baseline() }

// SmallConfig returns a scaled-down machine for tests and quick sweeps.
func SmallConfig() Config { return config.SmallTest() }

// NaiveMMU returns the strawman CPU-style MMU: 128-entry 4-way blocking
// TLB with the given port count and one serial walker per core.
func NaiveMMU(ports int) MMUConfig { return config.NaiveMMU(ports) }

// AugmentedMMU returns the paper's recommended MMU: 128-entry 4-port TLB
// with hits-under-miss, cache-overlapped translation, and PTW scheduling.
func AugmentedMMU() MMUConfig { return config.AugmentedMMU() }

// IdealMMU returns the impractical reference design: 512 entries, 32
// ports, no access-latency penalty, fully augmented.
func IdealMMU() MMUConfig { return config.MMU{}.Ideal() }

// WorkloadNames returns all registered workloads.
func WorkloadNames() []string { return workloads.Names() }

// PaperWorkloads returns the paper's six workloads in figure order.
func PaperWorkloads() []string { return workloads.PaperSet() }

// Observability types, re-exported from internal/obs so callers never
// import internal packages.
type (
	// Sampler records an interval time series into a bounded ring buffer;
	// attach one with WithSampler.
	Sampler = obs.Sampler
	// Sample is one time-series row: cumulative counters plus occupancy.
	Sample = obs.Sample
	// Registry holds hierarchically labelled metric breakdowns (per-core,
	// per-walker, per-L2-slice); attach one with WithMetrics.
	Registry = obs.Registry
	// Progress is the snapshot passed to a WithProgress callback.
	Progress = obs.Progress
	// AbortError is the typed error an aborted run returns, carrying the
	// sentinel cause, the cycle, and a diagnostic state dump.
	AbortError = obs.AbortError
)

// Typed abort causes, matched with errors.Is against a failed Run's error.
var (
	ErrLivelock  = obs.ErrLivelock  // watchdog saw no thread block retire
	ErrDeadlock  = obs.ErrDeadlock  // no core has a runnable event
	ErrMaxCycles = obs.ErrMaxCycles // cycle budget exceeded
	ErrDeadline  = obs.ErrDeadline  // wall-clock deadline passed
	ErrInvariant = obs.ErrInvariant // WithInvariants checker found corrupted state
)

// NewSampler creates a sampler recording every `every` cycles, retaining
// the most recent capacity samples (capacity <= 0 selects the default).
func NewSampler(every uint64, capacity int) *Sampler { return obs.NewSampler(every, capacity) }

// NewRegistry creates an empty metrics registry for WithMetrics.
func NewRegistry() *Registry { return obs.NewRegistry() }

// SamplePlan configures SMARTS-style interval sampling for WithSampling:
// per interval, Warmup detailed-but-unmeasured cycles, Detail measured
// cycles, and a fast-forward window worth FastForward cycles of work
// executed functionally. See internal/gpu.SamplePlan.
type SamplePlan = gpu.SamplePlan

// ParseSamplePlan parses the CLI form "warmup,detail,fastforward[,warm]".
func ParseSamplePlan(s string) (SamplePlan, error) { return gpu.ParseSamplePlan(s) }

// SampledStats holds the per-interval measurements and extrapolated totals
// of a sampled run, with 95% confidence intervals on the headline metrics.
type SampledStats = stats.Sampled

// Report is the outcome of one simulation: every statistic the paper's
// figures draw from. It embeds the raw statistics and records the
// workload/config identity.
type Report struct {
	stats.Sim
	Workload string
	Verified bool // functional check ran and passed

	// Series is the sampled time series when a WithSampler option was
	// given (nil otherwise). The final row's cumulative columns equal the
	// embedded end-of-run statistics.
	Series []Sample
	// Metrics is the labelled registry when a WithMetrics option was given
	// (nil otherwise).
	Metrics *Registry
	// Sampled holds the interval-sampling estimates when a WithSampling
	// option was given (nil otherwise). The embedded Sim statistics then
	// cover only the detailed windows; whole-run estimates with error bars
	// live here.
	Sampled *SampledStats
}

// Speedup returns this run's speedup relative to a baseline run of the
// same workload (baseline cycles / our cycles), the normalisation used by
// every figure in the paper.
func (r *Report) Speedup(baseline *Report) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(r.Cycles)
}

// runSpec is the resolved description of one simulation, assembled by
// RunOptions: a workload source plus the experiments.Sim it completes.
type runSpec struct {
	sim experiments.Sim // machine and run options; Run sets the workload

	workload string // build this named workload...
	size     Size
	seed     uint64
	built    *workloads.Workload // ...or run this pre-built one...
	kernel   *workloads.Workload // ...or this custom kernel launch

	check func() error // replaces the workload's functional check
}

// RunOption configures one simulation passed to Run.
type RunOption func(*runSpec)

// WithConfig sets the machine configuration. Without it, Run uses
// BaselineConfig.
func WithConfig(cfg Config) RunOption {
	return func(s *runSpec) { s.sim.Config = cfg }
}

// WithWorkload selects one of the registered workloads at the given scale,
// built fresh for this run (with the seed from WithSeed, default 1).
func WithWorkload(name string, size Size) RunOption {
	return func(s *runSpec) { s.workload = name; s.size = size }
}

// WithSeed sets the dataset construction seed for WithWorkload.
func WithSeed(seed uint64) RunOption {
	return func(s *runSpec) { s.seed = seed }
}

// WithBuilt runs an already-constructed workload (from BuildWorkload). The
// same built workload must not be reused across runs because kernels mutate
// their data.
func WithBuilt(w *workloads.Workload) RunOption {
	return func(s *runSpec) { s.built = w }
}

// WithKernel runs a custom kernel launch over the given address space. Pair
// with WithCheck to get a Verified report.
func WithKernel(as *vm.AddressSpace, l *kernels.Launch) RunOption {
	return func(s *runSpec) {
		s.kernel = nil
		if l != nil {
			s.kernel = &workloads.Workload{Name: l.Program.Name, AS: as, Launch: l}
		}
	}
}

// WithCheck sets (or, for workload runs, replaces) the functional
// verification run after the kernel completes; its failure fails the run.
func WithCheck(fn func() error) RunOption {
	return func(s *runSpec) { s.check = fn }
}

// WithSampling enables SMARTS-style interval sampling under the given plan:
// the run alternates detailed timing windows with fast-forward windows that
// execute whole thread blocks functionally. Architectural state (memory,
// page tables) stays exact; timing statistics cover only the detailed
// windows, and the report's Sampled field carries whole-run estimates with
// 95% confidence intervals. Grids too small for the retire rate to be
// measured degrade to exact execution. A zero plan disables sampling.
func WithSampling(plan SamplePlan) RunOption {
	return func(s *runSpec) { s.sim.Sampling = plan }
}

// WithInvariants enables the debug-build invariant checker: the simulator
// audits SIMT-stack well-formedness, TLB-vs-page-table coherence, MSHR and
// walker bookkeeping, and L2 slice homing every ~16k cycles and at kernel
// completion. A violation aborts the run with an *AbortError matching
// ErrInvariant whose message names the broken invariant. Checking is
// moderately expensive; leave it off for performance runs (when off, the
// hot path stays allocation-free and pays only a bool test per audit
// cadence).
func WithInvariants() RunOption {
	return func(s *runSpec) { s.sim.Invariants = true }
}

// WithMaxCycles aborts the run with ErrMaxCycles past this simulated cycle
// (0 means no limit).
func WithMaxCycles(n uint64) RunOption {
	return func(s *runSpec) { s.sim.MaxCycles = n }
}

// WithWatchdog aborts the run with ErrLivelock when no thread block retires
// for the given number of cycles — the forward-progress signal a spinning
// kernel cannot fake (0 disables).
func WithWatchdog(cycles uint64) RunOption {
	return func(s *runSpec) { s.sim.Watchdog = cycles }
}

// WithDeadline aborts the run with ErrDeadline once the wall clock passes t.
func WithDeadline(t time.Time) RunOption {
	return func(s *runSpec) { s.sim.Deadline = t }
}

// WithSampler records an interval time series into smp during the run; the
// report's Series holds the retained rows.
func WithSampler(smp *Sampler) RunOption {
	return func(s *runSpec) { s.sim.Sampler = smp }
}

// WithTrace streams a Chrome trace-event JSON document (Perfetto-loadable)
// to w: per-core execution and walker tracks, plus counter tracks at every
// sampler boundary when WithSampler is also given. Tracing is the only
// observability option with a per-event cost; with it absent the hot path
// stays allocation-free.
func WithTrace(w io.Writer) RunOption {
	return func(s *runSpec) { s.sim.Trace = w }
}

// WithMetrics collects labelled per-core/per-walker/per-L2-slice breakdowns
// into r at the end of the run; the report's Metrics points at it.
func WithMetrics(r *Registry) RunOption {
	return func(s *runSpec) { s.sim.Metrics = r }
}

// WithProgress calls fn roughly every `every` cycles (0 picks a default)
// with a cheap snapshot of the run.
func WithProgress(fn func(Progress), every uint64) RunOption {
	return func(s *runSpec) { s.sim.Progress = fn; s.sim.ProgressEvery = every }
}

// Run executes one simulation described by opts under ctx and returns its
// report. Exactly one workload source must be given: WithWorkload, WithBuilt,
// or WithKernel. A cancelled context, a passed WithDeadline, a tripped
// WithWatchdog, or an exceeded WithMaxCycles aborts the run with an
// *AbortError whose cause matches the corresponding sentinel via errors.Is.
func Run(ctx context.Context, opts ...RunOption) (*Report, error) {
	spec := runSpec{seed: 1}
	spec.sim.Config = BaselineConfig()
	for _, o := range opts {
		o(&spec)
	}

	sources := 0
	for _, set := range []bool{spec.workload != "", spec.built != nil, spec.kernel != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("gpummu: exactly one of WithWorkload, WithBuilt, WithKernel must be given (got %d)", sources)
	}
	w := spec.built
	switch {
	case spec.workload != "":
		var err error
		w, err = workloads.Build(spec.workload, spec.size, spec.sim.Config.PageShift, spec.seed)
		if err != nil {
			return nil, fmt.Errorf("gpummu: building %s: %w", spec.workload, err)
		}
	case spec.kernel != nil:
		if spec.kernel.AS == nil {
			return nil, fmt.Errorf("gpummu: WithKernel needs a non-nil address space")
		}
		w = spec.kernel
	}
	if spec.check != nil {
		checked := *w
		checked.Check = spec.check
		w = &checked
	}
	spec.sim.Workload = w

	out, err := experiments.Run(ctx, spec.sim)
	if err != nil {
		return nil, fmt.Errorf("gpummu: running %s: %w", w.Name, err)
	}
	rep := &Report{Sim: *out.Stats, Workload: w.Name, Verified: out.Checked,
		Metrics: spec.sim.Metrics, Sampled: out.Sampled}
	if spec.sim.Sampler != nil {
		rep.Series = spec.sim.Sampler.Samples()
	}
	return rep, nil
}

// BuildWorkload constructs a workload without running it, for callers that
// want to inspect or reuse the construction path.
func BuildWorkload(name string, size Size, pageShift uint, seed uint64) (*workloads.Workload, error) {
	return workloads.Build(name, size, pageShift, seed)
}

// NewAddressSpace creates a fresh simulated address space for custom
// kernels: sparse physical memory, a scrambled frame allocator, and an
// x86-64 page table. pageShift is 12 (4 KB) or 21 (2 MB).
func NewAddressSpace(pageShift uint) *vm.AddressSpace {
	return vm.NewAddressSpace(vm.NewPhysMem(), vm.NewFrameAllocator(1<<23), pageShift)
}
