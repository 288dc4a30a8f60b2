package gpu

import (
	"fmt"

	"gpummu/internal/config"
	"gpummu/internal/engine"
)

// This file is the machine half of the debug-build invariant checker
// (DESIGN.md §12). When GPU.Invariants is set, Run audits the whole device on
// the prune cadence (~16k cycles) and once more at kernel completion; a
// violation aborts the run with obs.ErrInvariant. The checks run after both
// passes of a step, so they see settled cycle-now state. They may allocate —
// correctness tooling is exempt from the zero-alloc budget, which only binds
// when the checker is off.

// checkInvariants audits every core (SIMT state + MMU), the shared TLB, and
// the sliced L2 at cycle now.
func (g *GPU) checkInvariants(now engine.Cycle) error {
	for _, c := range g.cores {
		if err := c.checkInvariants(now); err != nil {
			return fmt.Errorf("core %d: %w", c.id, err)
		}
	}
	if g.shared != nil {
		if err := g.shared.CheckInvariants(g.tr); err != nil {
			return err
		}
	}
	return g.sys.CheckInvariants()
}

// checkInvariants audits one core: per-block thread accounting, barrier
// bookkeeping, SIMT stack / TBC warp well-formedness, exclusive thread
// ownership, and the MMU's TLB-vs-page-table and MSHR consistency.
func (c *Core) checkInvariants(now engine.Cycle) error {
	progLen := int32(len(c.g.launch.Program.Code))
	for _, b := range c.blocks {
		if err := c.checkBlock(b, progLen); err != nil {
			return fmt.Errorf("block %d: %w", b.id, err)
		}
	}
	// MSHR exhaustion delays a walk's start rather than stalling its warp, so
	// one batch of misses from every translating warp can be in flight beyond
	// the configured registers; that batch is structurally capped by the
	// core's warp slots times the pages a warp instruction can touch.
	slack := c.g.cfg.WarpsPerCore * c.g.cfg.WarpWidth
	return c.mmu.CheckInvariants(now, slack)
}

func (c *Core) checkBlock(b *Block, progLen int32) error {
	live := 0
	for i := range b.threads {
		if !b.threads[i].exited {
			live++
		}
	}
	if live != b.liveThreads {
		return fmt.Errorf("liveThreads=%d but %d threads have not exited", b.liveThreads, live)
	}

	stackMode := c.g.cfg.TBC.Mode == config.DivStack
	barrierWarps := 0
	// owner[tid] is the index of the live warp whose lanes hold the thread;
	// a thread appearing in two live warps would execute twice.
	owner := make(map[int32]int)
	for wi, w := range b.warps {
		if w.state == WBarrier {
			barrierWarps++
		}
		if err := checkWarpShape(b, w, progLen, stackMode); err != nil {
			return fmt.Errorf("warp %d (slot %d): %w", wi, w.slot, err)
		}
		if w.state == WDone {
			continue
		}
		for _, lanes := range warpLaneSets(w, stackMode) {
			for _, tid := range lanes {
				if tid == noLane {
					continue
				}
				if prev, dup := owner[tid]; dup && prev != wi {
					return fmt.Errorf("thread %d active in warps %d and %d", tid, prev, wi)
				}
				owner[tid] = wi
			}
		}
	}
	if stackMode {
		if barrierWarps != b.barrierCount {
			return fmt.Errorf("barrierCount=%d but %d warps are in WBarrier", b.barrierCount, barrierWarps)
		}
	} else if b.barrierCount < 0 || b.barrierCount > b.liveWarpCount() {
		return fmt.Errorf("barrierCount=%d outside [0, %d live warps]", b.barrierCount, b.liveWarpCount())
	}
	return nil
}

// warpLaneSets returns every lane set the warp still references: all stack
// entries in stack mode (a thread parked in a deeper entry is still owned by
// this warp), the flat assignment under TBC.
func warpLaneSets(w *Warp, stackMode bool) [][]int32 {
	if !stackMode || w.stack == nil {
		return [][]int32{w.lanes}
	}
	sets := make([][]int32, len(w.stack))
	for i := range w.stack {
		sets[i] = w.stack[i].lanes
	}
	return sets
}

// checkWarpShape verifies one warp's structural well-formedness: state vs
// stack emptiness, pc/rpc ranges, and lane contents (valid thread ids, no
// duplicates within an execution context, no exited threads).
func checkWarpShape(b *Block, w *Warp, progLen int32, stackMode bool) error {
	if stackMode {
		if (w.state == WDone) != (len(w.stack) == 0) {
			return fmt.Errorf("state %d with %d stack entries", w.state, len(w.stack))
		}
		for ei := range w.stack {
			e := &w.stack[ei]
			if e.pc < 0 || e.pc > progLen {
				return fmt.Errorf("stack[%d] pc %d outside [0, %d]", ei, e.pc, progLen)
			}
			if e.rpc < -1 || e.rpc > progLen {
				return fmt.Errorf("stack[%d] rpc %d outside [-1, %d]", ei, e.rpc, progLen)
			}
			if err := checkLanes(b, e.lanes); err != nil {
				return fmt.Errorf("stack[%d]: %w", ei, err)
			}
		}
	} else {
		if w.pc < 0 || w.pc > progLen {
			return fmt.Errorf("pc %d outside [0, %d]", w.pc, progLen)
		}
		if err := checkLanes(b, w.lanes); err != nil {
			return err
		}
	}
	if w.state == WReady && w.curPC() >= progLen {
		return fmt.Errorf("ready at pc %d past program end %d", w.curPC(), progLen)
	}
	return nil
}

func checkLanes(b *Block, lanes []int32) error {
	seen := make(map[int32]bool, len(lanes))
	for li, tid := range lanes {
		if tid == noLane {
			continue
		}
		if tid < 0 || int(tid) >= len(b.threads) {
			return fmt.Errorf("lane %d holds invalid thread id %d", li, tid)
		}
		if b.threads[tid].exited {
			return fmt.Errorf("lane %d holds exited thread %d", li, tid)
		}
		if seen[tid] {
			return fmt.Errorf("thread %d appears twice in one lane set", tid)
		}
		seen[tid] = true
	}
	return nil
}
