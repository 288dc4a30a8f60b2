package gpu

import (
	"fmt"

	"gpummu/internal/engine"
	"gpummu/internal/kernels"
)

// special reads a special register value for thread tid of block b.
func (c *Core) special(b *Block, tid int32, s kernels.Special) uint64 {
	l := c.g.launch
	switch {
	case s == kernels.SpecGlobalTID:
		return uint64(b.id)*uint64(l.BlockDim) + uint64(tid)
	case s == kernels.SpecBlockTID:
		return uint64(tid)
	case s == kernels.SpecBlockID:
		return uint64(b.id)
	case s == kernels.SpecBlockDim:
		return uint64(l.BlockDim)
	case s == kernels.SpecGridDim:
		return uint64(l.Grid)
	case s == kernels.SpecLane:
		return uint64(int(tid) % c.g.cfg.WarpWidth)
	case s == kernels.SpecWarp:
		return uint64(int(tid) / c.g.cfg.WarpWidth)
	case s >= kernels.SpecParam0 && s < kernels.SpecParam0+kernels.NumParams:
		return l.Params[s-kernels.SpecParam0]
	}
	panic(fmt.Sprintf("gpu: unknown special %d", s))
}

// aluEval computes ALU op on operand values a and r and immediate imm.
// OpSpecial reads no operands; execCtrlOrALU handles it.
func aluEval(op kernels.ALUOp, a, r, imm uint64) uint64 {
	switch op {
	case kernels.OpMov:
		return a
	case kernels.OpMovImm:
		return imm
	case kernels.OpAdd:
		return a + r
	case kernels.OpAddImm:
		return a + imm
	case kernels.OpSub:
		return a - r
	case kernels.OpMul:
		return a * r
	case kernels.OpMulImm:
		return a * imm
	case kernels.OpDiv:
		if r == 0 {
			return 0
		}
		return a / r
	case kernels.OpRem:
		if r == 0 {
			return 0
		}
		return a % r
	case kernels.OpAnd:
		return a & r
	case kernels.OpAndImm:
		return a & imm
	case kernels.OpOr:
		return a | r
	case kernels.OpXor:
		return a ^ r
	case kernels.OpShlImm:
		return a << (imm & 63)
	case kernels.OpShrImm:
		return a >> (imm & 63)
	case kernels.OpMin:
		if a < r {
			return a
		}
		return r
	case kernels.OpSltu:
		if a < r {
			return 1
		}
		return 0
	case kernels.OpSltuImm:
		if a < imm {
			return 1
		}
		return 0
	case kernels.OpSeq:
		if a == r {
			return 1
		}
		return 0
	case kernels.OpSeqImm:
		if a == imm {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("gpu: unknown ALU op %d", op))
}

// execCtrlOrALU executes one non-memory instruction for warp w at cycle now.
func (c *Core) execCtrlOrALU(now engine.Cycle, w *Warp, in *kernels.Instr) {
	b := w.block
	pc := w.curPC()
	switch in.Kind {
	case kernels.KindALU:
		dst := b.reg(in.Dst)
		if in.Op == kernels.OpSpecial {
			s := kernels.Special(in.Imm)
			for _, tid := range w.curLanes() {
				if tid != noLane {
					dst[tid] = c.special(b, tid, s)
				}
			}
		} else {
			// Each lane reads its operands before writing dst, so dst may
			// alias a or r.
			a, r, imm := b.reg(in.A), b.reg(in.B), uint64(in.Imm)
			for _, tid := range w.curLanes() {
				if tid != noLane {
					dst[tid] = aluEval(in.Op, a[tid], r[tid], imm)
				}
			}
		}
		w.readyAt = now + 1
		c.advance(now, w, pc+1)

	case kernels.KindJump:
		w.readyAt = now + 1
		c.advance(now, w, in.Target)

	case kernels.KindBranch:
		c.execBranch(now, w, in)

	case kernels.KindBarrier:
		c.execBarrier(now, w)

	case kernels.KindExit:
		c.execExit(now, w)

	default:
		panic(fmt.Sprintf("gpu: unexpected instruction kind %d", in.Kind))
	}
}

// advance moves the warp to pc, then (under TBC) parks the warp if it
// reached its entry's reconvergence point.
func (c *Core) advance(now engine.Cycle, w *Warp, pc int32) {
	w.setPC(pc)
	if w.block.tbc != nil && w.state == WReady {
		w.block.tbc.checkReconverged(now, w)
	}
}

// branchTaken evaluates the branch condition on register value v.
func branchTaken(v uint64, in *kernels.Instr) bool {
	if in.Cond == kernels.CondZ {
		return v == 0
	}
	return v != 0
}

// execBranch handles a conditional branch: uniform branches just redirect;
// divergent ones go through the per-warp SIMT stack or block-wide TBC.
func (c *Core) execBranch(now engine.Cycle, w *Warp, in *kernels.Instr) {
	b := w.block
	pc := w.curPC()
	if b.tbc != nil {
		// Block-wide synchronisation: the warp parks until all running
		// warps of its TBC entry arrive at this branch.
		b.tbc.warpAtBranch(now, w, in, pc)
		return
	}

	lanes := w.curLanes()
	cond := b.reg(in.A)
	nT, nF := 0, 0
	for _, tid := range lanes {
		if tid == noLane {
			continue
		}
		if branchTaken(cond[tid], in) {
			nT++
		} else {
			nF++
		}
	}
	w.readyAt = now + 1
	switch {
	case nF == 0:
		w.setPC(in.Target)
	case nT == 0:
		w.setPC(pc + 1)
	default:
		// Diverged: only now materialise the two lane sets — they are owned
		// by the pushed stack entries, so they must be freshly allocated,
		// but uniform branches (the common case) never pay for them.
		width := len(lanes)
		taken := make([]int32, width)
		fall := make([]int32, width)
		for i, tid := range lanes {
			taken[i], fall[i] = noLane, noLane
			if tid == noLane {
				continue
			}
			if branchTaken(cond[tid], in) {
				taken[i] = tid
			} else {
				fall[i] = tid
			}
		}
		// The current context becomes the reconvergence continuation; push
		// the fall-through side, then the taken side (executed first).
		top := w.top()
		top.pc = in.Reconv
		if pc+1 != in.Reconv {
			w.stack = append(w.stack, simtEntry{pc: pc + 1, rpc: in.Reconv, lanes: fall})
		}
		if in.Target != in.Reconv {
			w.stack = append(w.stack, simtEntry{pc: in.Target, rpc: in.Reconv, lanes: taken})
		}
		w.reconverge()
	}
}

// execBarrier parks the warp until every live warp of the block arrives.
func (c *Core) execBarrier(now engine.Cycle, w *Warp) {
	b := w.block
	w.state = WBarrier
	b.barrierCount++
	c.g.emit(Event{Cycle: now, Kind: EvBarrier, Core: int16(c.id), Block: int32(b.id),
		Warp: int16(w.slot), A: uint64(w.curPC()), B: uint64(b.barrierCount)})
	if b.barrierCount < b.liveWarpCount() {
		return
	}
	// Everyone arrived: release.
	b.barrierCount = 0
	for _, o := range b.warps {
		if o.state == WBarrier {
			o.state = WReady
			o.readyAt = now + 1
			c.advance(now, o, o.curPC()+1)
		}
	}
}

// execExit terminates all active lanes of the warp. The lane list is
// snapshotted into the core's scratch buffer because removeThread mutates
// it in place.
func (c *Core) execExit(now engine.Cycle, w *Warp) {
	b := w.block
	c.exitBuf = append(c.exitBuf[:0], w.curLanes()...)
	for _, tid := range c.exitBuf {
		if tid == noLane {
			continue
		}
		t := &b.threads[tid]
		if !t.exited {
			t.exited = true
			b.liveThreads--
		}
		w.removeThread(tid)
	}
	w.readyAt = now + 1
	if b.tbc != nil {
		b.tbc.warpDrained(now, w)
	} else {
		w.reconverge()
	}
	b.maybeRetire(now)
}
