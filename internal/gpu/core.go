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
	tkSkipped                // the core slept through the step
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

	// wakeAt is the earliest cycle at which a tick can do anything the
	// last tick could not: the issue stage freeing (after an issue) or the
	// earliest warp or walk event (after a tick that issued nothing,
	// including one the MMU memory gate refused, which cannot open before
	// the core's first outstanding walk completes). Until then the core's
	// state is frozen, since warps only change through the core's own
	// ticks, so a skippable core sleeps: its turn does nothing and its next
	// event is wakeAt (DESIGN.md §10.1). CCWS-family schedulers decay their
	// locality scores on the cycles their core ticks, so those cores clear
	// skippable and tick at every global step.
	wakeAt    engine.Cycle
	skippable bool

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
	tkKind int8
	tkEv   engine.Cycle
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
	return c
}

func (c *Core) reset() {
	c.blocks = nil
	c.rrPtr = 0
	c.lastIssued = nil
	c.nextIssue = 0
	c.wakeAt = 0
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
// real tick, unless the core sleeps. It records the outcome for the data
// pass and the aggregation.
func (c *Core) cycle(now engine.Cycle) {
	if len(c.blocks) == 0 {
		// A blockless core can only regain blocks through its own
		// retireBlock, so it has nothing to do until the launch ends.
		c.tkKind = tkBlockless
		return
	}
	if c.skippable && now < c.wakeAt {
		c.tkKind, c.tkEv = tkSkipped, c.wakeAt
		return
	}
	c.tkKind, c.tkEv = tkTicked, c.tick(now)
}

// tick issues at most one ready warp instruction, trying warps in
// scheduler order. Everything an issued instruction does runs here except
// a memory instruction's L1 misses, which it leaves in pend for the data
// pass (commitData). It returns the next cycle at which this core has work
// to do.
func (c *Core) tick(now engine.Cycle) engine.Cycle {
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
		return now + 1
	}

	// The issue stage drains one warp instruction every IssuePeriod
	// cycles (WarpWidth lanes through an IssueWidth-wide pipeline). A
	// sleeping core wakes no earlier than nextIssue, so only a core that
	// ticks at every step gets here. The warp scan's events decide where
	// the global steps fall, which such a core's score decay depends on.
	if c.nextIssue > now {
		next := c.nextIssue
		for _, w := range warps {
			if w.state == WReady && w.readyAt > now && w.readyAt < next {
				next = w.readyAt
			}
		}
		c.wakeAt = c.nextIssue
		return next
	}

	memGated := false
	for _, w := range c.sched.order(now, warps) {
		if w.state != WReady || w.readyAt > now {
			continue
		}
		if !c.step(now, w) {
			memGated = true
			continue
		}
		c.lastIssued = w
		c.sched.afterIssue()
		// The core idled from the end of its last issue period until now.
		c.st.IdleCycles.Add(uint64(now - c.nextIssue))
		c.nextIssue = now + engine.Cycle(c.g.cfg.IssuePeriod())
		c.wakeAt = c.nextIssue
		return c.nextIssue
	}

	// Nothing issued: find the next event.
	next := noEvent
	for _, w := range warps {
		if w.state == WReady && w.readyAt > now && w.readyAt < next {
			next = w.readyAt
		}
	}
	if memGated {
		// Nothing but a walk completion opens the gate.
		if ev := c.mmu.NextEvent(now); ev != 0 && ev < next {
			next = ev
		}
	}
	c.wakeAt = next
	if next == noEvent {
		// All warps waiting on barriers/TBC with no timer: the releasing
		// event happens when another warp arrives, which requires some
		// warp to be runnable. If truly nothing is runnable the kernel
		// deadlocked; surface that via noEvent so Run can diagnose.
		for _, w := range warps {
			if w.state == WReady {
				c.wakeAt = now + 1
				return now + 1
			}
		}
	}
	return next
}

// step issues one instruction of warp w, unless it is a memory instruction
// the MMU memory gate refuses (blocking TLB semantics: memory instructions
// stall while walks are outstanding, but non-memory instructions from other
// warps proceed). A refused attempt records nothing. step reports whether
// the instruction issued.
func (c *Core) step(now engine.Cycle, w *Warp) bool {
	pc := w.curPC()
	in := &c.g.launch.Program.Code[pc]
	isMem := in.Kind == kernels.KindLoad || in.Kind == kernels.KindStore
	if isMem && !c.mmu.CanAcceptMemOp(now) {
		return false
	}
	lanes := countLanes(w.curLanes())
	c.st.ActiveLanes.Observe(lanes)
	if c.g.tracer != nil {
		c.g.emit(Event{Cycle: now, Kind: EvIssue, Core: int16(c.id),
			Block: int32(w.block.id), Warp: int16(w.slot), A: uint64(pc), B: uint64(lanes)})
	}
	if isMem {
		c.execMem(now, w, in)
	} else {
		c.execCtrlOrALU(now, w, in)
	}
	c.st.Instructions.Inc()
	return true
}
