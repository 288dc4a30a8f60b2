package gpu

import (
	"fmt"
	"strconv"
	"strings"

	"gpummu/internal/engine"
	"gpummu/internal/kernels"
	"gpummu/internal/ref"
	"gpummu/internal/stats"
)

// This file implements SMARTS-style interval sampling: RunSampled
// alternates detailed timing windows (the ordinary run loop) with
// fast-forward windows that execute not-yet-dispatched thread blocks
// functionally through internal/ref's block interpreter.
//
// Fast-forward operates at thread-block granularity, which is what makes it
// exact for architectural state: block dispatch is a clean functional
// boundary (a block that has not been dispatched has no timing state at
// all), and the workload kernels are communication-free (loads from
// read-only data, stores to thread-exclusive slots — DESIGN.md §12), so
// executing whole blocks out of order yields the same final memory image
// and identical MemDigest/PageTableDigest as a full detailed run. Blocks
// already resident on cores always finish detailed; fast-forward only
// consumes from the undispatched tail of the grid.

// ffMaxStepsPerThread bounds each functionally executed thread so a
// malformed kernel errors out instead of spinning (mirrors the detailed
// machine's MaxCycles guard).
const ffMaxStepsPerThread = 1 << 31

// SamplePlan configures interval sampling for RunSampled. Each interval is
// Warmup detailed-but-unmeasured cycles (draining cold-start transients out
// of the TLBs, caches, and in-flight machine state), then Detail measured
// cycles, then a fast-forward window that functionally executes the number
// of thread blocks the timing model would have retired in FastForward
// cycles at the measured retire rate. The zero value disables sampling.
//
// WarmTLB additionally replays the pages each fast-forward window touched
// into the TLB hierarchy. It is off by default because plans with adequate
// Warmup re-warm the TLBs organically, and the injected fills measurably
// hurt accuracy on shared-read-heavy workloads (see DESIGN.md §15): bulk
// fills pre-install shared pages the resident blocks are about to touch,
// leaking free hits into the measured windows.
type SamplePlan struct {
	Warmup      uint64
	Detail      uint64
	FastForward uint64
	WarmTLB     bool
}

// Enabled reports whether the plan requests sampling at all.
func (p SamplePlan) Enabled() bool {
	return p.Warmup != 0 || p.Detail != 0 || p.FastForward != 0
}

// Validate checks an enabled plan: measurement and fast-forward must both
// be non-empty (a plan with no detail cycles has nothing to extrapolate
// from; one with no fast-forward is just a slower exact run).
func (p SamplePlan) Validate() error {
	if !p.Enabled() {
		return nil
	}
	if p.Detail == 0 {
		return fmt.Errorf("gpu: sample plan needs detail > 0 (got %s)", p)
	}
	if p.FastForward == 0 {
		return fmt.Errorf("gpu: sample plan needs fastforward > 0 (got %s)", p)
	}
	return nil
}

// String renders the plan in the CLI flag form "warmup,detail,fastforward"
// with an optional ",warm" suffix.
func (p SamplePlan) String() string {
	s := fmt.Sprintf("%d,%d,%d", p.Warmup, p.Detail, p.FastForward)
	if p.WarmTLB {
		s += ",warm"
	}
	return s
}

// ParseSamplePlan parses "warmup,detail,fastforward[,warm]" (the
// -sampleplan flag).
func ParseSamplePlan(s string) (SamplePlan, error) {
	parts := strings.Split(s, ",")
	var p SamplePlan
	if len(parts) == 4 && strings.TrimSpace(parts[3]) == "warm" {
		p.WarmTLB = true
		parts = parts[:3]
	}
	if len(parts) != 3 {
		return SamplePlan{}, fmt.Errorf("gpu: sample plan %q: want warmup,detail,fastforward[,warm]", s)
	}
	var vals [3]uint64
	for i, part := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return SamplePlan{}, fmt.Errorf("gpu: sample plan %q: %w", s, err)
		}
		vals[i] = v
	}
	p.Warmup, p.Detail, p.FastForward = vals[0], vals[1], vals[2]
	if err := p.Validate(); err != nil {
		return SamplePlan{}, err
	}
	return p, nil
}

// windowCounters is a snapshot of the counters the sampled metrics need,
// folded across the global sink and every core shard (shards merge only at
// run end, so mid-run totals need both). Reads happen between detailed
// segments, so the fold is exact.
type windowCounters struct {
	instructions  uint64
	tlbAccesses   uint64
	tlbMisses     uint64
	walks         uint64
	walkLatEvents uint64
	walkLatTotal  uint64
	blocksRetired uint64
}

func (g *GPU) foldWindow() windowCounters {
	w := windowCounters{
		instructions:  g.st.Instructions.Value(),
		tlbAccesses:   g.st.TLBAccesses.Value(),
		tlbMisses:     g.st.TLBMisses.Value(),
		walks:         g.st.Walks.Value(),
		walkLatEvents: g.st.WalkLat.Events,
		walkLatTotal:  g.st.WalkLat.Total,
		blocksRetired: g.retired,
	}
	for _, c := range g.cores {
		w.instructions += c.st.Instructions.Value()
		w.tlbAccesses += c.st.TLBAccesses.Value()
		w.tlbMisses += c.st.TLBMisses.Value()
		w.walks += c.st.Walks.Value()
		w.walkLatEvents += c.st.WalkLat.Events
		w.walkLatTotal += c.st.WalkLat.Total
	}
	return w
}

// delta turns two snapshots into one measured Interval.
func intervalDelta(start engine.Cycle, cycles uint64, before, after windowCounters) stats.Interval {
	return stats.Interval{
		Start:         uint64(start),
		Cycles:        cycles,
		Instructions:  after.instructions - before.instructions,
		TLBAccesses:   after.tlbAccesses - before.tlbAccesses,
		TLBMisses:     after.tlbMisses - before.tlbMisses,
		Walks:         after.walks - before.walks,
		WalkLatEvents: after.walkLatEvents - before.walkLatEvents,
		WalkLatTotal:  after.walkLatTotal - before.walkLatTotal,
		Blocks:        after.blocksRetired - before.blocksRetired,
	}
}

// warmTranslations models the TLB residency a fast-forward window leaves
// behind: every distinct page the skipped blocks touched is installed,
// stat-free and port-free, into the shared second-tier TLB (when present)
// and into one per-core TLB round-robin by touch order — approximating how
// the skipped blocks would have spread across cores. Touch order is a pure
// function of block ids and thread order, so the fills (and the evictions
// they cause) are deterministic for any host parallelism.
func (g *GPU) warmTranslations(now engine.Cycle, touched []ref.Touch) {
	for i, t := range touched {
		if g.shared != nil {
			g.shared.Fill(now, t.VPN, t.PBase)
		}
		g.cores[i%len(g.cores)].mmu.WarmFill(now, t.VPN, t.PBase)
	}
}

// RunSampled executes one kernel launch under the given sampling plan and
// returns the detailed cycle count plus the per-interval measurements with
// extrapolated totals. Architectural state at completion — memory image,
// page tables — is identical to a full Run of the same launch; timing
// statistics (the Sim sink) cover only the detailed windows, with whole-run
// estimates and 95% confidence intervals in the returned stats.Sampled.
//
// The fast-forward block budget per window is round(rate·FastForward),
// where rate is the steady-state retire slope: blocks per cycle measured
// from the first retire after a full residency turnover (the co-scheduled
// first wave retires in a burst that says nothing about throughput).
// Until that slope exists the budget is zero, so a plan too fine to
// observe progress degrades to an exact (slow but correct) run rather
// than guessing.
func (g *GPU) RunSampled(l *kernels.Launch, plan SamplePlan) (uint64, *stats.Sampled, error) {
	if !plan.Enabled() {
		return 0, nil, fmt.Errorf("gpu: RunSampled needs a non-zero plan")
	}
	if err := plan.Validate(); err != nil {
		return 0, nil, err
	}
	rs, err := g.beginRun(l)
	if err != nil {
		return 0, nil, err
	}
	defer g.mergeShards()
	g.ffSkip = make([]bool, l.Grid)
	defer func() { g.ffSkip = nil }()

	bi, err := ref.NewBlockInterp(g.as, l, g.cfg.WarpWidth, g.as.PageShift())
	if err != nil {
		return 0, nil, err
	}
	if !plan.WarmTLB {
		bi.DisableTouch()
	}
	smp := &stats.Sampled{
		Warmup:      plan.Warmup,
		Detail:      plan.Detail,
		FastForward: plan.FastForward,
		TotalBlocks: uint64(l.Grid),
	}
	// steadySpan reports the steady-state retire slope observed so far:
	// whole residency turnovers between wave-phase-aligned retire
	// boundaries (see the retire-span fields on GPU). Zero until at least
	// one full turnover beyond the first wave has completed — co-scheduled
	// blocks retire in bursts, so any sub-turnover rate is meaningless.
	steadySpan := func() (cycles, blocks uint64) {
		if g.retireWaves == 0 || g.retireWaveAt <= g.retireSteadyAt {
			return 0, 0
		}
		return uint64(g.retireWaveAt - g.retireSteadyAt), g.retireWaves * g.retireCap
	}
	for !rs.done {
		if plan.Warmup > 0 {
			if err := g.runLoop(rs, rs.now+engine.Cycle(plan.Warmup)); err != nil {
				return uint64(rs.now), nil, err
			}
			if rs.done {
				break
			}
		}
		start := rs.now
		before := g.foldWindow()
		if err := g.runLoop(rs, rs.now+engine.Cycle(plan.Detail)); err != nil {
			return uint64(rs.now), nil, err
		}
		after := g.foldWindow()
		iv := intervalDelta(start, uint64(rs.now-start), before, after)

		spanC, spanB := steadySpan()
		if !rs.done && g.nextBlock < l.Grid && spanB > 0 {
			k := int((spanB*plan.FastForward + spanC/2) / spanC)
			// Collect the undispatched pool and skip a centred systematic
			// sample of it — every (n/k)-th block, not the front of the
			// tail — so the blocks left to run detailed stay an unbiased
			// sample of the grid when per-block cost varies with block id.
			var pool []int
			for id := g.nextBlock; id < l.Grid; id++ {
				if !g.ffSkip[id] {
					pool = append(pool, id)
				}
			}
			if g.retireWaves < 3 {
				// Until a few turnovers have been measured, hold back two
				// turnovers' worth of blocks so refills keep the machine at
				// full occupancy and the marginal-rate measurement keeps
				// accumulating waves.
				if reserve := 2 * int(g.retireCap); k > len(pool)-reserve {
					k = len(pool) - reserve
				}
			}
			if k > len(pool) {
				k = len(pool)
			}
			for i := 0; i < k; i++ {
				id := pool[(2*i+1)*len(pool)/(2*k)]
				steps, err := bi.ExecuteBlock(id, ffMaxStepsPerThread)
				if err != nil {
					return uint64(rs.now), nil, fmt.Errorf("gpu: fast-forward block %d: %w", id, err)
				}
				g.ffSkip[id] = true
				iv.FFBlocks++
				iv.FFInstructions += steps
			}
			g.advanceCursor()
			if plan.WarmTLB {
				g.warmTranslations(rs.now, bi.DrainTouched())
			}
			smp.FFBlocks += iv.FFBlocks
			smp.FFInstructions += iv.FFInstructions
		}
		smp.Intervals = append(smp.Intervals, iv)
		if smp.RetireSpanBlocks == 0 && g.nextBlock >= l.Grid {
			// The dispatch pool just went dry: from here occupancy only
			// declines, blocks finish with less contention, and the retire
			// rate stops being representative of the full machine. Freeze
			// the marginal-rate measurement at this full-occupancy sub-span;
			// the drain that follows is paid once in DetailCycles, exactly
			// as an exact run pays its own drain once.
			smp.RetireSpanCycles, smp.RetireSpanBlocks = steadySpan()
		}
	}
	if err := g.finishRun(rs); err != nil {
		return uint64(rs.now), nil, err
	}
	smp.DetailCycles = uint64(rs.now)
	smp.DetailInstructions = g.foldWindow().instructions
	if smp.RetireSpanBlocks == 0 {
		// The steady slope never matured before the pool went dry (tiny
		// grids, or a run that never fast-forwarded): take whatever
		// post-first-wave slope exists now, drain included.
		smp.RetireSpanCycles, smp.RetireSpanBlocks = steadySpan()
	}
	return uint64(rs.now), smp, nil
}
