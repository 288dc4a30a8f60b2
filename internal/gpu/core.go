package gpu

import (
	"gpummu/internal/config"
	"gpummu/internal/core"
	"gpummu/internal/engine"
	"gpummu/internal/kernels"
	"gpummu/internal/mem"
	"gpummu/internal/stats"
)

// Tick-outcome kinds recorded by cycle for the data pass and the
// aggregation of GPU.Run's step.
const (
	tkBlockless = int8(iota) // no resident blocks; nothing to do
	tkSkipped                // event fast-forward emulated the tick
	tkTicked                 // a real tick ran; its data pass must follow
)

// Core is one shader core: its warps, L1 data cache, MMU, scheduler state,
// and (under TBC) the Common Page Matrix.
type Core struct {
	id int
	g  *GPU

	// st is this core's private statistics shard. Everything the core (and
	// its MMU, scheduler, and TBC state machine) counts lands here and is
	// folded into the run's global sink when the run finishes; mem.System
	// and the shared TLB write the global sink directly. The two sinks cover
	// disjoint fields, and every stats type merges commutatively and
	// exactly, so sharding never changes reported totals (see
	// stats.Sim.Merge); the shards also give the per-core metrics.
	st *stats.Sim

	mmu     *core.MMU
	l1      *mem.Cache
	l1Port  *engine.SlottedResource
	l1MSHRs []engine.Cycle // next-free per miss-status register
	sched   *sched
	cpm     *core.CPM

	blocks     []*Block
	rrPtr      int
	lastIssued *Warp
	nextIssue  engine.Cycle // issue stage free at this cycle

	// wakeAt is the earliest cycle at which a real tick can do anything the
	// last real tick could not: the issue stage freeing (after an issue) or
	// the earliest warp/walk event (after a no-issue tick, including one
	// blocked by the MMU memory gate, whose gate cannot open before its
	// first outstanding walk completes). While now < wakeAt the core's state
	// is frozen — warps only change through the core's own ticks — so Run
	// skips the full tick and instead emulates it: a cheap warp scan bounded
	// by sleepCap yields its return value, and the gated issue attempts it
	// would repeat are replayed from gated (see DESIGN.md "Performance
	// model" for the exactness argument). CCWS-family schedulers decay
	// their locality scores on a wall-clock cadence, which makes their
	// behaviour tick-cadence sensitive — those cores set skippable=false
	// and are ticked every global step, exactly as before.
	wakeAt    engine.Cycle
	sleepCap  engine.Cycle
	skippable bool
	// gated lists, in scheduler order, the issue attempts the last real tick
	// made behind the memory gate; empty unless that tick issued nothing.
	gated []issueAttempt

	// Per-core scratch buffers, reused across instructions so steady-state
	// execution performs no heap allocation. Owned by this core only; never
	// shared across cores (see DESIGN.md "Performance model").
	scratch memScratch
	warpBuf []*Warp
	exitBuf []int32

	// liveDirty marks the cached warpBuf stale. The live-warp list only
	// changes when a warp dies (WDone), TBC compaction appends dynamic
	// warps, or a block is dispatched/retired — every such site sets this
	// flag, so the common tick reuses the previous scan.
	liveDirty bool

	// pend is the data-pass remainder of the memory instruction this step's
	// tick issued (see DESIGN.md "Tick pass and data pass").
	pend pendMem

	// cycle's outcome, consumed by the data pass and the aggregation.
	tkKind   int8
	tkIssued bool
	tkEv     engine.Cycle
}

func newCore(id int, g *GPU) *Core {
	cfg := g.cfg
	c := &Core{id: id, g: g, st: &stats.Sim{}}
	histLen := 0
	if cfg.TBC.Mode == config.DivTLBTBC {
		histLen = cfg.TBC.CPMHistory
	}
	c.mmu = core.NewMMU(cfg.MMU, g.sys, g.tr, c.st, histLen)
	c.l1 = mem.NewCache(cfg.L1Bytes, cfg.L1LineSize, cfg.L1Assoc)
	c.l1Port = engine.NewSlottedResource(2, 32)
	nm := cfg.L1MSHRs
	if nm < 1 {
		nm = 32
	}
	c.l1MSHRs = make([]engine.Cycle, nm)
	c.sched = newSched(c)
	if cfg.TBC.Mode == config.DivTLBTBC {
		c.cpm = core.NewCPM(cfg.WarpsPerCore, cfg.TBC.CPMBits, cfg.TBC.CPMFlushPeriod)
		c.mmu.AttachCPM(c.cpm)
	}
	c.skippable = !(c.sched.ccwsFamily() && cfg.Sched.DecayPeriod > 0)
	c.scratch.words = (cfg.WarpsPerCore + 63) / 64
	c.warpBuf = make([]*Warp, 0, cfg.WarpsPerCore)
	c.gated = make([]issueAttempt, 0, cfg.WarpsPerCore)
	return c
}

func (c *Core) reset() {
	c.blocks = nil
	c.rrPtr = 0
	c.lastIssued = nil
	c.nextIssue = 0
	c.wakeAt = 0
	c.sleepCap = 0
	c.gated = c.gated[:0]
	c.liveDirty = true
	c.pend = pendMem{}
	c.l1.Flush()
	c.mmu.Shootdown()
	for i := range c.l1MSHRs {
		c.l1MSHRs[i] = 0
	}
	c.sched.reset()
}

// warpsPerBlock returns warps needed by one thread block of the current
// launch.
func (c *Core) warpsPerBlock() int {
	w := c.g.cfg.WarpWidth
	return (c.g.launch.BlockDim + w - 1) / w
}

// capacityBlocks is how many blocks fit on this core concurrently.
func (c *Core) capacityBlocks() int {
	n := c.g.cfg.WarpsPerCore / c.warpsPerBlock()
	if n < 1 {
		n = 1
	}
	return n
}

// slotUsed reports whether a resident block occupies residency slot i.
func (c *Core) slotUsed(i int) bool {
	for _, b := range c.blocks {
		if b.slotIdx == i {
			return true
		}
	}
	return false
}

// fillBlocks dispatches pending grid blocks onto free block slots.
func (c *Core) fillBlocks() {
	capa := c.capacityBlocks()
	for len(c.blocks) < capa && c.g.nextBlock < c.g.launch.Grid {
		slot := -1
		for i := 0; i < capa; i++ {
			if !c.slotUsed(i) {
				slot = i
				break
			}
		}
		if slot < 0 {
			break
		}
		b := newBlock(c, c.g.nextBlock, slot)
		c.g.nextBlock++
		c.g.advanceCursor()
		c.g.liveBlocks++
		c.blocks = append(c.blocks, b)
		c.liveDirty = true
	}
}

// retireBlock removes a finished block at cycle now and backfills from the
// grid.
func (c *Core) retireBlock(b *Block, now engine.Cycle) {
	for i, x := range c.blocks {
		if x == b {
			c.blocks = append(c.blocks[:i], c.blocks[i+1:]...)
			break
		}
	}
	c.liveDirty = true
	c.g.liveBlocks--
	c.g.retired++
	// Retire-span bookkeeping for sampled runs.
	n := c.g.retired - c.g.retireBase
	if n == 1 {
		c.g.retireFirstAt = now
	}
	if cap := c.g.retireCap; cap > 0 && n > cap && (n-1)%cap == 0 {
		// Retire number j·cap+1: a wave-phase-aligned turnover boundary.
		if c.g.retireSteadyAt == 0 {
			c.g.retireSteadyAt = now
		} else {
			c.g.retireWaveAt = now
			c.g.retireWaves++
		}
	}
	c.g.retireLastAt = now
	c.g.emit(Event{Cycle: now, Kind: EvBlockEnd, Core: int16(c.id),
		Block: int32(b.id), Warp: -1, A: uint64(b.id), B: uint64(now)})
	c.fillBlocks()
}

// liveWarps appends all not-Done warps across resident blocks to dst.
func (c *Core) liveWarps(dst []*Warp) []*Warp {
	for _, b := range c.blocks {
		for _, w := range b.warps {
			if w.state != WDone {
				dst = append(dst, w)
			}
		}
	}
	return dst
}

// cycle runs the core's turn in the tick pass of a global step at now: a
// real tick, or its emulation while the core sleeps. It records the
// outcome for the data pass and the aggregation.
func (c *Core) cycle(now engine.Cycle) {
	if len(c.blocks) == 0 {
		// A blockless core can only regain blocks through its own
		// retireBlock, so it has nothing to do until the launch ends.
		c.tkKind = tkBlockless
		return
	}
	if c.skippable && now < c.wakeAt {
		// The core's warp set is frozen until wakeAt, so a real tick would
		// only repeat the last tick's gated issue attempts; replay those and
		// emulate its return value with a bounded warp scan (the "hint" the
		// pristine loop produced) instead of running maintain/order/step.
		// See DESIGN.md "Performance model" for the exactness argument.
		// The scan's result stands until the clock reaches it, so a core
		// skipped at the previous step rescans only once it has.
		ev, anyWarp := c.tkEv, true
		if c.tkKind != tkSkipped || now >= ev {
			ev, anyWarp = c.sleepCap, false
			for _, b := range c.blocks {
				for _, w := range b.warps {
					if w.state == WDone {
						continue
					}
					anyWarp = true
					if w.state == WReady && w.readyAt > now && w.readyAt < ev {
						ev = w.readyAt
					}
				}
			}
		}
		if anyWarp {
			for _, a := range c.gated {
				c.attempt(now, a)
			}
			c.tkKind = tkSkipped
			c.tkEv = ev
			return
		}
		// All warps drained with blocks still live: TBC bookkeeping is
		// pending, which only a real tick's maintain can run.
	}
	issued, ev := c.tick(now)
	c.tkKind = tkTicked
	c.tkIssued = issued
	c.tkEv = ev
}

// tick issues up to IssueWidth ready warps in scheduler order. Everything
// an issued instruction does runs here except a memory instruction's L1
// misses, which it leaves in pend for the data pass (commitData). It
// reports whether anything issued and the next cycle at which this core
// has work to do.
func (c *Core) tick(now engine.Cycle) (issuedAny bool, next engine.Cycle) {
	c.gated = c.gated[:0]
	if len(c.blocks) == 0 {
		return false, noEvent
	}
	for _, b := range c.blocks {
		if b.tbc != nil {
			b.tbc.maintain(now)
		}
	}

	if c.liveDirty {
		c.warpBuf = c.liveWarps(c.warpBuf[:0])
		c.liveDirty = false
	}
	warps := c.warpBuf
	if len(warps) == 0 {
		// Blocks whose warps all finished retire in stepExit; reaching
		// here with live blocks but no warps means TBC bookkeeping has
		// pending work next maintain round.
		c.wakeAt = now + 1
		return false, now + 1
	}

	// The issue stage drains one warp instruction every IssuePeriod
	// cycles (WarpWidth lanes through an IssueWidth-wide pipeline).
	if c.nextIssue > now {
		next := c.nextIssue
		for _, w := range warps {
			if w.state == WReady && w.readyAt > now && w.readyAt < next {
				next = w.readyAt
			}
		}
		c.wakeAt, c.sleepCap = c.nextIssue, c.nextIssue
		return false, next
	}

	order := c.sched.order(now, warps)
	issued := 0
	memGated := false
	for _, w := range order {
		if issued >= 1 {
			break
		}
		if w.state != WReady || w.readyAt > now {
			continue
		}
		ok, gated := c.step(now, w)
		if gated {
			memGated = true
		}
		if ok {
			issued++
			c.lastIssued = w
		}
	}
	if issued > 0 {
		c.gated = c.gated[:0]
		c.sched.afterIssue()
		c.nextIssue = now + engine.Cycle(c.g.cfg.IssuePeriod())
		c.wakeAt, c.sleepCap = c.nextIssue, c.nextIssue
		return true, c.nextIssue
	}

	// Nothing issued: find the next event.
	next = noEvent
	for _, w := range warps {
		if w.state == WReady && w.readyAt > now && w.readyAt < next {
			next = w.readyAt
		}
	}
	if memGated {
		// Nothing but a walk completion opens the gate: until then a
		// re-tick would repeat exactly the attempts recorded in gated.
		if ev := c.mmu.NextEvent(now); ev != 0 && ev < next {
			next = ev
		}
	}
	c.wakeAt, c.sleepCap = next, next
	if next == noEvent {
		// All warps waiting on barriers/TBC with no timer: the releasing
		// event happens when another warp arrives, which requires some
		// warp to be runnable. If truly nothing is runnable the kernel
		// deadlocked; surface that via noEvent so Run can diagnose.
		for _, w := range warps {
			if w.state == WReady {
				c.wakeAt = now + 1
				return false, now + 1
			}
		}
	}
	return false, next
}

// step executes one instruction of warp w. It returns whether the warp
// issued and whether it was blocked by the MMU memory gate (blocking TLB
// semantics: memory instructions stall while walks are outstanding, but
// non-memory instructions from other warps proceed).
func (c *Core) step(now engine.Cycle, w *Warp) (issued, memGated bool) {
	pc := w.curPC()
	in := &c.g.launch.Program.Code[pc]
	a := issueAttempt{block: int32(w.block.id), warp: int16(w.slot), pc: pc,
		lanes: int32(countLanes(w.curLanes()))}
	c.attempt(now, a)
	if in.Kind == kernels.KindLoad || in.Kind == kernels.KindStore {
		if !c.mmu.CanAcceptMemOp(now) {
			c.gated = append(c.gated, a)
			return false, true
		}
		c.execMem(now, w, in)
		c.st.Instructions.Inc()
		return true, false
	}
	c.execCtrlOrALU(now, w, in)
	c.st.Instructions.Inc()
	return true, false
}

// issueAttempt identifies one warp issue attempt: the warp's block and
// scheduler slot, its PC, and its active lane count. It holds no pointers,
// so a recorded attempt never keeps a retired block reachable.
type issueAttempt struct {
	block int32
	warp  int16
	pc    int32
	lanes int32
}

// attempt records the side effects of an issue attempt, whether or not it
// issues: the ActiveLanes observation and, when tracing, the EvIssue event.
func (c *Core) attempt(now engine.Cycle, a issueAttempt) {
	c.st.ActiveLanes.Observe(int(a.lanes))
	if c.g.tracer != nil {
		c.g.emit(Event{Cycle: now, Kind: EvIssue, Core: int16(c.id),
			Block: a.block, Warp: a.warp, A: uint64(a.pc), B: uint64(a.lanes)})
	}
}
