// Package gpu implements the SIMT machine: shader cores, warps, the warp
// schedulers (round-robin, GTO, and the CCWS family), per-warp SIMT
// reconvergence stacks, thread block compaction, and the load-store path
// that drives the MMU in internal/core. The machine is cycle-driven with
// event fast-forwarding: when no core can issue, the clock jumps to the
// next completion.
package gpu

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"gpummu/internal/config"
	"gpummu/internal/core"
	"gpummu/internal/engine"
	"gpummu/internal/kernels"
	"gpummu/internal/mem"
	"gpummu/internal/obs"
	"gpummu/internal/stats"
	"gpummu/internal/vm"
)

// ModelVersion numbers the definitions the simulator's statistics follow.
// service.Key folds it in, so a result stored under an older model is never
// served as this one's. Bump it with every deliberate model change that
// regenerates the statistics goldens in testdata/.
const ModelVersion = 1

// noEvent marks "no future event" from a core tick.
const noEvent = engine.Cycle(math.MaxUint64)

// GPU is the whole simulated device: shader cores plus the shared memory
// system, executing kernels over a unified address space.
type GPU struct {
	cfg    config.Hardware
	sys    *mem.System
	tr     *vm.Translator
	as     *vm.AddressSpace
	st     *stats.Sim
	cores  []*Core
	launch *kernels.Launch

	nextBlock  int // next block id to dispatch
	liveBlocks int
	// ffSkip marks blocks RunSampled executed functionally; the dispatch
	// cursor steps over them (advanceCursor). Nil outside sampled runs.
	// Skipped ids are chosen evenly across the undispatched pool, not from
	// its front, so the blocks that do run detailed remain an unbiased
	// sample of the grid even when per-block cost drifts with block id.
	ffSkip []bool
	tracer *ChromeTracer
	shared *core.SharedTLB // non-nil only with the shared-L2-TLB extension

	// Invariants enables the debug-build invariant checker: Run audits SIMT
	// stacks, TLB-vs-page-table coherence, MSHR bookkeeping, and L2 slice
	// homing on the prune cadence and at kernel completion, aborting with
	// obs.ErrInvariant on a violation. Off by default; when off the only cost
	// is a bool check per prune.
	Invariants bool

	// MaxCycles, when non-zero, aborts Run past this cycle with a
	// diagnostic — a guard against malformed kernels that never finish.
	MaxCycles uint64

	// Observability hooks (DESIGN.md §11). All are optional; their zero
	// values cost the hot path nothing beyond a nil/zero check, keeping the
	// warm path allocation-free when observability is off.

	// Sampler, when non-nil, records an obs.Sample time-series row at every
	// sampling-interval boundary the clock reaches (plus a forced final row,
	// so the last row's cumulative columns equal the end-of-run report).
	Sampler *obs.Sampler
	// Metrics, when non-nil, receives the hierarchically labelled breakdowns
	// (per-core, per-walker, per-L2-slice) at the end of every Run. Values
	// come from the same per-core shards the global sink merges, so they
	// sum exactly to the report.
	Metrics *obs.Registry
	// WatchdogWindow aborts a run with obs.ErrLivelock when no thread block
	// retires for this many cycles (0 disables). Block retirement — not
	// instruction issue — is the progress signal: a spin loop issues
	// instructions forever, and only a finishing block shows the kernel is
	// actually getting anywhere.
	WatchdogWindow uint64
	// Deadline aborts the run with obs.ErrDeadline once the wall clock
	// passes it (zero disables). Checked on the prune cadence (~16k cycles).
	Deadline time.Time
	// Ctx, when non-nil, cancels the run cooperatively: a done context
	// aborts with its error as the obs.AbortError cause. Checked on the
	// prune cadence alongside Deadline.
	Ctx context.Context
	// Progress, when non-nil, is called roughly every ProgressEvery cycles
	// (default 1<<20) with a cheap run snapshot.
	Progress      func(obs.Progress)
	ProgressEvery uint64

	// retired counts thread blocks retired since construction — the
	// watchdog's monotonic forward-progress signal.
	retired uint64

	// stepEveryCycle makes runLoop take a global step at every cycle
	// instead of jumping to the earliest event. Only tests set it, to
	// check that statistics do not depend on the loop's step cadence.
	stepEveryCycle bool

	// Retire-span instrumentation for sampled runs (RunSampled). Blocks
	// co-scheduled onto the cores retire in bursts (whole waves finish
	// together), so the only reliable steady-state quantum is a full
	// residency turnover: the interval between retire number cap+1 and
	// retire number k·cap+1 spans exactly k-1 wave periods at matching wave
	// phase, whatever the burst structure looks like inside a wave.
	// retireSteadyAt is the cycle of retire cap+1, retireWaveAt the cycle
	// of the latest retire j·cap+1 after it, and retireWaves counts those
	// turnovers; (retireWaveAt-retireSteadyAt)/(retireWaves·cap) is the
	// marginal cycles-per-block with ramp-up and first-wave burst cancelled.
	retireFirstAt  engine.Cycle
	retireSteadyAt engine.Cycle
	retireWaveAt   engine.Cycle
	retireLastAt   engine.Cycle
	retireWaves    uint64
	retireCap      uint64 // total resident block capacity for this launch
	retireBase     uint64 // value of retired at reset (retired is monotonic across runs)
}

// dumpState summarises core and warp states for deadlock/runaway
// diagnostics.
func (g *GPU) dumpState(now engine.Cycle) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycle %d\n", now)
	for _, c := range g.cores {
		fmt.Fprintf(&sb, "core %d wakeAt=%d skippable=%v blocks=%d\n",
			c.id, c.wakeAt, c.skippable, len(c.blocks))
		for _, b := range c.blocks {
			fmt.Fprintf(&sb, "core %d block %d live=%d:", c.id, b.id, b.liveThreads)
			for _, w := range b.warps {
				fmt.Fprintf(&sb, " [slot%d st%d pc%d rdy%d lanes%d]", w.slot, w.state, w.curPC(), w.readyAt, countLanes(w.curLanes()))
			}
			if b.tbc != nil {
				fmt.Fprintf(&sb, " tbcstack=%d", len(b.tbc.stack))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// New builds a GPU with the given hardware configuration over the address
// space as, recording statistics into st.
func New(cfg config.Hardware, as *vm.AddressSpace, st *stats.Sim) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if uint(cfg.PageShift) != as.PageShift() {
		return nil, fmt.Errorf("gpu: config page shift %d != address space %d", cfg.PageShift, as.PageShift())
	}
	g := &GPU{
		cfg: cfg,
		as:  as,
		st:  st,
		tr:  vm.NewTranslator(as.PT, as.PageShift()),
	}
	g.sys = mem.NewSystem(cfg, st)
	var shared *core.SharedTLB
	if cfg.MMU.Enabled && cfg.MMU.SharedTLBEntries > 0 {
		lat := cfg.MMU.SharedTLBLatency
		if lat <= 0 {
			lat = 2 * cfg.ICNTLatency
		}
		shared = core.NewSharedTLB(cfg.MMU.SharedTLBEntries, 4, cfg.NumCores/2+1, lat, st)
	}
	g.shared = shared
	g.cores = make([]*Core, cfg.NumCores)
	for i := range g.cores {
		g.cores[i] = newCore(i, g)
		if shared != nil {
			g.cores[i].mmu.AttachSharedTLB(shared)
		}
	}
	return g, nil
}

// Stats returns the statistics sink.
func (g *GPU) Stats() *stats.Sim { return g.st }

// Translator returns the functional translator (tests and tools).
func (g *GPU) Translator() *vm.Translator { return g.tr }

// mergeShards folds every core's statistics shard into the run's global
// sink and clears the shards (so repeated Runs never double-count). Every
// stats type merges commutatively and exactly, so the totals are
// byte-identical to what a single shared sink would have accumulated.
func (g *GPU) mergeShards() {
	for i, c := range g.cores {
		if g.Metrics != nil {
			g.collectCoreMetrics(i, c)
		}
		g.st.Merge(c.st)
		*c.st = stats.Sim{}
	}
	if g.Metrics != nil {
		g.collectSystemMetrics()
	}
}

// runState carries one launch's loop state between detailed segments, so
// Run can execute the whole launch in one runLoop call while RunSampled
// alternates bounded runLoop segments with functional fast-forward windows.
type runState struct {
	now  engine.Cycle
	done bool // all blocks dispatched and drained

	// Watchdog state: progressAt is the last cycle a thread block retired.
	watchRetired uint64
	progressAt   engine.Cycle
	nextProgress engine.Cycle
}

// advanceCursor steps the dispatch cursor over blocks fast-forward already
// executed, maintaining the invariant that nextBlock < Grid implies
// nextBlock is dispatchable. Called wherever the cursor moves; a no-op
// outside sampled runs.
func (g *GPU) advanceCursor() {
	if g.ffSkip == nil {
		return
	}
	for g.nextBlock < g.launch.Grid && g.ffSkip[g.nextBlock] {
		g.nextBlock++
	}
}

// beginRun validates the launch and resets and fills the cores. Every
// successful beginRun must be paired with a deferred mergeShards, so the
// per-core statistics reach the global sink even on aborted runs.
func (g *GPU) beginRun(l *kernels.Launch) (*runState, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	g.launch = l
	g.nextBlock = 0
	g.liveBlocks = 0
	g.retireBase = g.retired
	g.retireFirstAt, g.retireSteadyAt, g.retireWaveAt, g.retireLastAt = 0, 0, 0, 0
	g.retireWaves = 0
	g.retireCap = 0
	for _, c := range g.cores {
		c.reset()
		g.retireCap += uint64(c.capacityBlocks())
	}
	// Initial block dispatch.
	for _, c := range g.cores {
		c.fillBlocks()
	}

	rs := &runState{}
	if g.Sampler != nil {
		g.Sampler.Reset()
	}
	rs.watchRetired = g.retired
	rs.nextProgress = engine.Cycle(noEvent)
	if g.Progress != nil {
		rs.nextProgress = engine.Cycle(g.progressEvery())
	}
	return rs, nil
}

// Run executes one kernel launch to completion and returns the total cycle
// count. It errs on invalid launches and on deadlock (which indicates a
// malformed kernel, e.g. a barrier inside divergent control flow).
//
// Each global step makes two passes over the cores in id order: a tick
// pass, in which every core with work that is not asleep ticks, and a data
// pass, in which every core that issued a memory instruction sends its L1
// misses to the memory system. So every core's walk references of a step
// reach the L2 and DRAM before any core's data references (DESIGN.md "Tick
// pass and data pass").
func (g *GPU) Run(l *kernels.Launch) (uint64, error) {
	rs, err := g.beginRun(l)
	if err != nil {
		return 0, err
	}
	defer g.mergeShards()
	if err := g.runLoop(rs, noEvent); err != nil {
		return uint64(rs.now), err
	}
	return uint64(rs.now), g.finishRun(rs)
}

// runLoop advances the detailed timing model until the launch drains or the
// clock reaches `until` (noEvent means run to completion). It is resumable:
// RunSampled calls it with successive bounds, fast-forwarding between calls.
// The stopping cycle is a pure function of simulation state.
func (g *GPU) runLoop(rs *runState, until engine.Cycle) error {
	l := g.launch
	watchRetired := rs.watchRetired
	progressAt := rs.progressAt
	nextProgress := rs.nextProgress
	now := rs.now
	defer func() {
		rs.watchRetired = watchRetired
		rs.progressAt = progressAt
		rs.nextProgress = nextProgress
		rs.now = now
	}()
	for g.liveBlocks > 0 || g.nextBlock < l.Grid {
		if now >= until {
			return nil
		}
		if g.MaxCycles != 0 && uint64(now) > g.MaxCycles {
			return g.abort(obs.ErrMaxCycles, now, fmt.Sprintf("MaxCycles=%d", g.MaxCycles))
		}
		// Tick pass. A core's tick runs everything its issued instruction
		// does — functional memory, translation with its walks, the L1,
		// block retirement, trace events — except the L1 misses.
		for _, c := range g.cores {
			c.cycle(now)
		}
		// Data pass: the step's L1 misses, after every core's walks.
		for _, c := range g.cores {
			if c.tkKind == tkTicked {
				c.commitData()
			}
		}
		// Nothing below mutates simulation state, so a sample row taken
		// here sees the settled state of the step.
		if g.Sampler != nil && uint64(now) >= g.Sampler.NextAt() {
			g.sample(now)
		}
		// Aggregation: ticks can retire blocks, so liveness and the next
		// event fold after the passes. live counts the cores holding
		// blocks, each charged the cycles up to the next step.
		next := noEvent
		live := uint64(0)
		for _, c := range g.cores {
			if c.tkKind == tkBlockless {
				continue
			}
			if len(c.blocks) > 0 {
				live++
			}
			next = min(next, c.tkEv)
		}
		if live == 0 && g.nextBlock >= l.Grid && g.liveBlocks == 0 {
			break
		}
		if next == noEvent {
			return g.abort(obs.ErrDeadlock, now, fmt.Sprintf("%d live blocks", g.liveBlocks))
		}
		if g.WatchdogWindow != 0 {
			if g.retired != watchRetired {
				watchRetired = g.retired
				progressAt = now
			} else if uint64(now-progressAt) > g.WatchdogWindow {
				return g.abort(obs.ErrLivelock, now, fmt.Sprintf("window=%d last-progress=%d", g.WatchdogWindow, progressAt))
			}
		}
		if next <= now || g.stepEveryCycle {
			next = now + 1
		}
		g.st.CoreCycles += live * uint64(next-now)
		if next>>14 != now>>14 {
			// Every ~16k cycles, drop contention bookkeeping for the past.
			g.sys.Prune(next)
			for _, c := range g.cores {
				c.l1Port.PruneBefore(next)
			}
			// The wall-clock guards piggyback on the same cadence so the hot
			// loop never touches the host clock or the context directly.
			if !g.Deadline.IsZero() && time.Now().After(g.Deadline) {
				return g.abort(obs.ErrDeadline, now, g.Deadline.Format(time.RFC3339))
			}
			if g.Ctx != nil {
				if err := g.Ctx.Err(); err != nil {
					return g.abort(err, now, "context cancelled")
				}
			}
			// The invariant checker shares the cadence too: both passes have
			// run, so it sees a consistent cycle-now snapshot.
			if g.Invariants {
				if err := g.checkInvariants(now); err != nil {
					return g.abort(obs.ErrInvariant, now, err.Error())
				}
			}
		}
		if g.Progress != nil && next >= nextProgress {
			g.Progress(obs.Progress{Cycle: uint64(now), Instructions: g.foldInstructions(), LiveBlocks: g.liveBlocks})
			nextProgress = next + engine.Cycle(g.progressEvery())
		}
		now = next
	}
	rs.done = true
	return nil
}

// finishRun runs the end-of-launch audits once the loop has drained: the
// final invariant check (short kernels may never reach a prune boundary,
// and end-of-run state — all blocks retired, TLBs still populated — must
// also be well-formed), the forced final sampler row (its cumulative
// columns equal the run's report), and the cycle total.
func (g *GPU) finishRun(rs *runState) error {
	now := rs.now
	if g.Invariants {
		if err := g.checkInvariants(now); err != nil {
			return g.abort(obs.ErrInvariant, now, err.Error())
		}
	}
	if g.Sampler != nil {
		g.sample(now)
	}
	g.st.Cycles = uint64(now)
	return nil
}
