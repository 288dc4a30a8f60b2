package gpu

import (
	"gpummu/internal/engine"
	"gpummu/internal/obs"
	"gpummu/internal/stats"
)

// This file wires the observability layer (internal/obs) into the machine:
// abort classification, interval sampling, and end-of-run metrics
// collection. Everything here runs outside the per-cycle hot path — at
// sample boundaries, at run end, or when a run is already failing.

// abort wraps a run-stopping condition into the typed obs.AbortError,
// capturing the diagnostic state dump at the failing cycle.
func (g *GPU) abort(cause error, now engine.Cycle, msg string) error {
	return &obs.AbortError{Cause: cause, Cycle: uint64(now), Msg: msg, Dump: g.dumpState(now)}
}

// progressEvery returns the Progress callback cadence in cycles.
func (g *GPU) progressEvery() uint64 {
	if g.ProgressEvery != 0 {
		return g.ProgressEvery
	}
	return 1 << 20
}

// foldInstructions sums retired instructions across the global sink and
// every core shard (shards merge only at run end, so mid-run totals need
// both).
func (g *GPU) foldInstructions() uint64 {
	n := g.st.Instructions.Value()
	for _, c := range g.cores {
		n += c.st.Instructions.Value()
	}
	return n
}

// sample records one time-series row at cycle now. It runs after the data
// pass and before the aggregation, and reads simulation state strictly
// read-only (MMU occupancy deliberately avoids the pruning accessors), so
// sampling never changes simulation output.
func (g *GPU) sample(now engine.Cycle) {
	smp := obs.Sample{Cycle: uint64(now), LiveBlocks: g.liveBlocks}
	g.foldSample(&smp, g.st)
	for _, c := range g.cores {
		g.foldSample(&smp, c.st)
		for _, b := range c.blocks {
			smp.ActiveWarps += b.liveWarpCount()
		}
		wb, mu := c.mmu.Occupancy(now)
		smp.WalkersBusy += wb
		smp.MSHRsUsed += mu
	}
	var from engine.Cycle
	if last, ok := g.Sampler.Last(); ok {
		from = engine.Cycle(last.Cycle)
	}
	smp.IcntUtil = g.sys.IcntUtilization(from, now)
	smp.DRAMUtil = g.sys.DRAMUtilization(from, now)
	g.Sampler.Record(smp)
	if g.tracer != nil {
		g.tracer.counterSample(smp, g.sys.SliceStats())
	}
}

// foldSample adds one statistics sink's cumulative counters into a sample
// row. The global sink and the per-core shards cover disjoint fields, so
// summing every sink yields the run totals at this cycle.
func (g *GPU) foldSample(smp *obs.Sample, st *stats.Sim) {
	smp.Instructions += st.Instructions.Value()
	smp.MemInstrs += st.MemInstrs.Value()
	smp.TLBAccesses += st.TLBAccesses.Value()
	smp.TLBHits += st.TLBHits.Value()
	smp.TLBMisses += st.TLBMisses.Value()
	smp.L1Accesses += st.L1Accesses.Value()
	smp.L1Misses += st.L1Misses.Value()
	smp.L2Accesses += st.L2Accesses.Value()
	smp.L2Misses += st.L2Misses.Value()
	smp.Walks += st.Walks.Value()
}

// collectCoreMetrics snapshots one core's per-run statistics shard into the
// labelled registry, called from mergeShards just before the shard folds
// into the global sink and clears. Per-core counters Add (accumulating over
// repeated Runs exactly like the global sink); per-walker counts are
// cumulative in the MMU, so they Set.
func (g *GPU) collectCoreMetrics(i int, c *Core) {
	r := g.Metrics
	cl := obs.LabelInt("core", i)
	r.Counter(obs.Name("core.instructions", cl)).Add(c.st.Instructions.Value())
	r.Counter(obs.Name("core.mem_instrs", cl)).Add(c.st.MemInstrs.Value())
	r.Counter(obs.Name("core.idle_cycles", cl)).Add(c.st.IdleCycles.Value())
	r.Counter(obs.Name("core.tlb.accesses", cl)).Add(c.st.TLBAccesses.Value())
	r.Counter(obs.Name("core.tlb.hits", cl)).Add(c.st.TLBHits.Value())
	r.Counter(obs.Name("core.tlb.misses", cl)).Add(c.st.TLBMisses.Value())
	r.Counter(obs.Name("core.l1.accesses", cl)).Add(c.st.L1Accesses.Value())
	r.Counter(obs.Name("core.l1.misses", cl)).Add(c.st.L1Misses.Value())
	r.Counter(obs.Name("core.walks", cl)).Add(c.st.Walks.Value())
	for wi, n := range c.mmu.WalkerWalks() {
		r.Counter(obs.Name("walker.walks", cl, obs.LabelInt("walker", wi))).Set(n)
	}
}

// collectSystemMetrics snapshots the shared memory system's per-L2-slice
// breakdown. Slice counters are cumulative over the System's lifetime, so
// they Set.
func (g *GPU) collectSystemMetrics() {
	r := g.Metrics
	for si, s := range g.sys.SliceStats() {
		sl := obs.LabelInt("slice", si)
		r.Counter(obs.Name("l2.accesses", sl)).Set(s.Accesses)
		r.Counter(obs.Name("l2.hits", sl)).Set(s.Hits)
		r.Counter(obs.Name("l2.misses", sl)).Set(s.Misses)
		r.Counter(obs.Name("l2.walk_refs", sl)).Set(s.Walks)
	}
}
