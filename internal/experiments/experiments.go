// Package experiments regenerates every table and figure of the paper's
// evaluation through a three-phase plan → execute → render pipeline. Each
// figure declares its (workload, config) run matrix as RunSpec values;
// RunAll collects the specs of every requested figure, dedupes them by the
// canonical config key, executes the unique runs on a parallel worker pool
// (see runner.go), and only then renders the tables from the completed
// results — so reports are byte-identical regardless of worker count.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"gpummu/internal/config"
	"gpummu/internal/gpu"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

// Options configures a harness run.
type Options struct {
	Size     workloads.Size
	Seed     uint64
	Machine  func() config.Hardware // base machine; default config.Baseline
	Workload []string               // defaults to the paper's six
	Workers  int                    // executor goroutines; <= 0 = GOMAXPROCS
	Verbose  bool                   // log per-run progress to Progress
	Progress io.Writer              // progress destination; default os.Stderr

	// Obs attaches per-run observability (sampling, watchdog, cycle
	// budget, deadline) to every simulation the harness executes. The
	// zero value keeps runs unobserved.
	Obs ObsOptions

	// Checkpoint enables checkpointed warm starts (Executor.Checkpoint):
	// all runs sharing a workload restore from one post-build snapshot
	// instead of rebuilding. Reports are byte-identical either way.
	Checkpoint bool

	// Sampling executes every figure run under SMARTS-style interval
	// sampling (Executor.Sampling): absolute Cycles/Instructions totals in
	// the rendered tables become extrapolated estimates, ratios come from
	// the measured windows. The zero plan keeps runs exact.
	Sampling gpu.SamplePlan

	// Results substitutes the harness's result store. The default (nil) is
	// a fresh in-memory ResultStore; the job server passes a store-backed
	// implementation so completed runs persist across processes and dedup
	// reaches results other clients already paid for.
	Results Results

	// Simulate substitutes the executor's simulation step
	// (Executor.Simulate): the job server installs a slot-budgeted,
	// singleflight-coalescing wrapper here so concurrent jobs share the
	// host fairly and never simulate the same spec twice at once.
	Simulate func(RunSpec, func(RunSpec) *RunResult) *RunResult
}

func (o *Options) fill() {
	if o.Machine == nil {
		o.Machine = config.Baseline
	}
	if len(o.Workload) == 0 {
		o.Workload = workloads.PaperSet()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Verbose && o.Progress == nil {
		o.Progress = os.Stderr
	}
	if !o.Verbose {
		o.Progress = nil
	}
}

// Harness ties the three pipeline phases together: it plans figure
// matrices, drives the executor, and serves completed results to the
// renderers. All figures share one ResultStore so the no-TLB baseline
// every speedup normalises against is simulated exactly once.
type Harness struct {
	opt  Options
	out  io.Writer
	exec *Executor
}

// New creates a harness writing its tables to out.
func New(out io.Writer, opt Options) *Harness {
	opt.fill()
	store := opt.Results
	if store == nil {
		store = NewResultStore()
	}
	return &Harness{
		opt: opt,
		out: out,
		exec: &Executor{
			Workers:    opt.Workers,
			Size:       opt.Size,
			Seed:       opt.Seed,
			Progress:   opt.Progress,
			Store:      store,
			Obs:        opt.Obs,
			Checkpoint: opt.Checkpoint,
			Sampling:   opt.Sampling,
			Simulate:   opt.Simulate,
		},
	}
}

// Store exposes the harness's result store (tests and tools).
func (h *Harness) Store() Results { return h.exec.Store }

// Spec builds the RunSpec for workload w under cfg with this harness's
// size and seed baked into the executor.
func (h *Harness) Spec(w string, cfg config.Hardware) RunSpec {
	return RunSpec{Workload: w, Config: cfg}
}

// Run returns the statistics for workload w under cfg. If the executor
// already completed the run, the stored result is served; otherwise the
// simulation runs inline in the calling goroutine (the sequential fallback
// that keeps single-figure and test paths working without a plan). The
// returned Sim is a private clone: renderers can never mutate the shared
// stored result. Run is safe for concurrent use.
func (h *Harness) Run(w string, cfg config.Hardware) (*stats.Sim, error) {
	spec := h.Spec(w, cfg)
	res, ok := h.exec.store().Get(spec)
	if !ok {
		h.exec.store().Put(h.exec.simulate(spec))
		// Re-read so concurrent callers converge on the canonical
		// first-published result.
		res, _ = h.exec.store().Get(spec)
	}
	if res.Err != nil {
		return nil, fmt.Errorf("%s: %w", spec, res.Err)
	}
	return res.Stats.Clone(), nil
}

// baseline returns the no-TLB run for w with the harness machine.
func (h *Harness) baseline(w string) (*stats.Sim, error) {
	return h.Run(w, h.cfgNoTLB())
}

// speedup computes st's speedup over the no-TLB baseline for w.
func (h *Harness) speedup(w string, st *stats.Sim) (float64, error) {
	base, err := h.baseline(w)
	if err != nil {
		return 0, err
	}
	if st.Cycles == 0 {
		return 0, fmt.Errorf("%s: zero cycles", w)
	}
	return float64(base.Cycles) / float64(st.Cycles), nil
}

func describe(cfg config.Hardware) string {
	if !cfg.MMU.Enabled {
		s := "no-tlb"
		if cfg.Sched.Policy != config.SchedLRR {
			s += "+" + cfg.Sched.Policy.String()
		}
		if cfg.TBC.Mode != config.DivStack {
			s += "+" + cfg.TBC.Mode.String()
		}
		return s
	}
	s := fmt.Sprintf("tlb%de/%dp", cfg.MMU.Entries, cfg.MMU.Ports)
	if cfg.MMU.HitsUnderMiss {
		s += "+hum"
	}
	if cfg.MMU.CacheOverlap {
		s += "+ovl"
	}
	if cfg.MMU.PTWSched {
		s += "+ptws"
	}
	if cfg.MMU.NumPTWs > 1 {
		s += fmt.Sprintf("+%dptw", cfg.MMU.NumPTWs)
	}
	if cfg.MMU.IdealLatency {
		s += "+ideal"
	}
	if cfg.Sched.Policy != config.SchedLRR {
		s += "+" + cfg.Sched.Policy.String()
	}
	if cfg.TBC.Mode != config.DivStack {
		s += "+" + cfg.TBC.Mode.String()
	}
	return s
}

// Figure describes one reproducible experiment: the run matrix it needs
// (Plan) and a renderer that formats completed results (Run).
type Figure struct {
	ID    string
	Title string
	Paper string // the paper's qualitative claim, for EXPERIMENTS.md

	// Plan declares every (workload, config) run the renderer will read.
	// It must not simulate anything.
	Plan func(h *Harness) []RunSpec

	// Run renders the figure's table. When the harness has executed the
	// figure's plan the renderer only reads completed results; specs it
	// asks for beyond its plan fall back to inline execution.
	Run func(h *Harness) (string, error)
}

// ByID returns the figure with the given ID.
func ByID(id string) (Figure, error) {
	for _, f := range All() {
		if f.ID == id {
			return f, nil
		}
	}
	ids := make([]string, 0)
	for _, f := range All() {
		ids = append(ids, f.ID)
	}
	sort.Strings(ids)
	return Figure{}, fmt.Errorf("experiments: unknown figure %q (have %v)", id, ids)
}

// PlanFigures collects and dedupes the run matrices of the given figures,
// in figure order (phase 1 of the pipeline).
func (h *Harness) PlanFigures(figs []Figure) *Plan {
	p := NewPlan()
	for _, f := range figs {
		if f.Plan != nil {
			p.Add(f.Plan(h)...)
		}
	}
	return p
}

// Execute runs the plan's outstanding specs on the worker pool (phase 2)
// and returns how many simulations ran. Failures are recorded in the
// store, surfacing later as render errors for the figures that need them.
func (h *Harness) Execute(p *Plan) int { return h.exec.Execute(p) }

// RunFigures executes the full pipeline for the given figures: plan,
// execute in parallel, then render each figure into the report in order.
// A figure whose runs failed renders an error note and the remaining
// figures still run; the joined failures are returned after the whole
// report is written.
func RunFigures(h *Harness, figs []Figure) error {
	plan := h.PlanFigures(figs)
	if h.opt.Progress != nil {
		fmt.Fprintf(h.opt.Progress, "# plan: %d unique runs across %d figures (workers=%d)\n",
			plan.Len(), len(figs), h.exec.workers())
	}
	h.Execute(plan)

	var failures []error
	for _, f := range figs {
		fmt.Fprintf(h.out, "\n## %s — %s\n\nPaper: %s\n\n", f.ID, f.Title, f.Paper)
		body, err := f.Run(h)
		if err != nil {
			failures = append(failures, fmt.Errorf("%s: %w", f.ID, err))
			fmt.Fprintf(h.out, "ERROR: %v\n", err)
			continue
		}
		fmt.Fprintln(h.out, body)
	}
	return errors.Join(failures...)
}

// RunAll executes every figure and writes a combined report.
func RunAll(h *Harness) error { return RunFigures(h, All()) }
