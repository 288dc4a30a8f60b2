package gpu

import (
	"fmt"

	"gpummu/internal/config"
	"gpummu/internal/engine"
	"gpummu/internal/kernels"
)

// tbcEntry is one level of the block-wide reconvergence stack of thread
// block compaction (paper section 8). An entry owns a set of dynamic warps
// all executing the same control-flow region; warps that reach the entry's
// reconvergence point (rpc) park; warps that reach a divergent branch wait
// until every running warp of the entry arrives, at which point the
// compactor splits the entry's threads by branch outcome into child entries
// with freshly compacted dynamic warps.
type tbcEntry struct {
	rpc int32 // reconvergence pc; -1 for the root entry

	warps   []*Warp // running dynamic warps
	waiting []*Warp // warps parked at the synchronising branch
	waitPC  int32   // branch pc everyone is waiting at (-1 none)

	// When a branch is processed the entry suspends until its children
	// pop, then resumes its threads at resumeAt.
	hasResume     bool
	resumeAt      int32
	resumeThreads []int32
}

// tbcState is the per-block compaction state machine.
type tbcState struct {
	b     *Block
	stack []*tbcEntry
}

func newTBCState(b *Block) *tbcState {
	root := &tbcEntry{rpc: -1, waitPC: -1, warps: append([]*Warp(nil), b.warps...)}
	for _, w := range b.warps {
		w.entry = root
	}
	return &tbcState{b: b, stack: []*tbcEntry{root}}
}

func (t *tbcState) top() *tbcEntry { return t.stack[len(t.stack)-1] }

func removeWarp(ws []*Warp, w *Warp) []*Warp {
	for i, x := range ws {
		if x == w {
			return append(ws[:i], ws[i+1:]...)
		}
	}
	return ws
}

// warpAtBranch parks warp w at a (potentially divergent) branch: TBC
// synchronises all warps of a thread block region at branches so the
// compactor can reform warps from the whole region's threads.
func (t *tbcState) warpAtBranch(now engine.Cycle, w *Warp, in *kernels.Instr, pc int32) {
	e := w.entry
	if e.waitPC >= 0 && e.waitPC != pc {
		panic(fmt.Sprintf("gpu: tbc: unstructured branch sync (pc %d vs %d) in %s",
			pc, e.waitPC, t.b.core.g.launch.Program.Name))
	}
	e.waitPC = pc
	w.state = WTBCWait
	e.warps = removeWarp(e.warps, w)
	e.waiting = append(e.waiting, w)
	t.maintain(now)
}

// warpDrained handles a warp whose lanes all exited or that reached the
// entry's reconvergence point: it leaves the entry.
func (t *tbcState) warpDrained(now engine.Cycle, w *Warp) {
	e := w.entry
	if e == nil {
		return
	}
	w.state = WDone
	e.warps = removeWarp(e.warps, w)
	t.b.pruneWarps()
	t.maintain(now)
}

// checkReconverged is called after a warp moves its pc: a warp whose pc hit
// its entry's rpc parks its threads there.
func (t *tbcState) checkReconverged(now engine.Cycle, w *Warp) {
	e := w.entry
	if e == nil || e.rpc < 0 || w.pc != e.rpc {
		return
	}
	w.state = WDone
	e.warps = removeWarp(e.warps, w)
	t.b.pruneWarps()
	t.maintain(now)
}

// maintain drives the state machine: process branch syncs, resume suspended
// entries whose children finished, and pop completed entries.
func (t *tbcState) maintain(now engine.Cycle) {
	for {
		e := t.top()
		if len(e.warps) > 0 {
			return // entry still running
		}
		if len(e.waiting) > 0 {
			t.processBranch(now, e)
			continue
		}
		if e.hasResume {
			t.resume(now, e)
			if len(t.top().warps) > 0 {
				return
			}
			continue
		}
		if len(t.stack) == 1 {
			return // root drained; block retires via thread exits
		}
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// processBranch splits the entry's synchronised threads by branch outcome
// and pushes compacted child entries (taken side on top, executed first).
func (t *tbcState) processBranch(now engine.Cycle, e *tbcEntry) {
	b := t.b
	in := &b.core.g.launch.Program.Code[e.waitPC]
	fallPC := e.waitPC + 1

	cond := b.reg(in.A)
	var takenT, fallT, all []int32
	for _, w := range e.waiting {
		for _, tid := range w.lanes {
			if tid == noLane || b.threads[tid].exited {
				continue
			}
			all = append(all, tid)
			if branchTaken(cond[tid], in) {
				takenT = append(takenT, tid)
			} else {
				fallT = append(fallT, tid)
			}
		}
		w.state = WDone
		w.entry = nil
	}
	e.waiting = e.waiting[:0]
	e.waitPC = -1
	b.pruneWarps()

	e.hasResume = true
	e.resumeAt = in.Reconv
	e.resumeThreads = all

	// Children: fall-through pushed first so the taken side runs first,
	// as in the paper's figure 19 walk-through. Sides that start at the
	// reconvergence point contribute no child.
	if fallPC != in.Reconv && len(fallT) > 0 {
		t.pushEntry(now, fallT, fallPC, in.Reconv)
	}
	if in.Target != in.Reconv && len(takenT) > 0 {
		t.pushEntry(now, takenT, in.Target, in.Reconv)
	}
}

// resume recompacts an entry's surviving threads at its resume point.
func (t *tbcState) resume(now engine.Cycle, e *tbcEntry) {
	live := e.resumeThreads[:0]
	for _, tid := range e.resumeThreads {
		if !t.b.threads[tid].exited {
			live = append(live, tid)
		}
	}
	e.hasResume = false
	if len(live) == 0 || (e.rpc >= 0 && e.resumeAt == e.rpc) {
		// Nothing left to run, or the resume point IS this entry's own
		// reconvergence point (a loop-exit branch): the threads park here
		// and the parent's resume covers them.
		e.resumeThreads = nil
		return
	}
	warps := t.compact(now, live, e.resumeAt)
	for _, w := range warps {
		w.entry = e
	}
	e.warps = append(e.warps, warps...)
	t.b.warps = append(t.b.warps, warps...)
	t.b.core.liveDirty = true
	e.resumeThreads = nil
}

func (t *tbcState) pushEntry(now engine.Cycle, threads []int32, pc, rpc int32) {
	e := &tbcEntry{rpc: rpc, waitPC: -1}
	warps := t.compact(now, threads, pc)
	for _, w := range warps {
		w.entry = e
	}
	e.warps = warps
	t.b.warps = append(t.b.warps, warps...)
	t.b.core.liveDirty = true
	t.stack = append(t.stack, e)
}

// compact forms dynamic warps from threads, lane-preserving: a thread can
// only occupy its home lane (tid mod warp width), so each dynamic warp
// takes at most one candidate per lane. TLB-agnostic compaction packs
// densely (the priority-encoder result); TLB-aware compaction additionally
// requires the candidate's original warp to have saturated Common Page
// Matrix counters against every original warp already in the target warp
// (paper section 8.2), possibly forming more, lower-divergence warps.
func (t *tbcState) compact(now engine.Cycle, threads []int32, pc int32) []*Warp {
	b := t.b
	width := b.core.g.cfg.WarpWidth
	tlbAware := b.core.g.cfg.TBC.Mode == config.DivTLBTBC && b.core.cpm != nil

	var warps []*Warp
	newWarp := func() *Warp {
		lanes := make([]int32, width)
		for i := range lanes {
			lanes[i] = noLane
		}
		w := &Warp{block: b, state: WReady, readyAt: now + 1, pc: pc, lanes: lanes, slot: -1}
		warps = append(warps, w)
		return w
	}

	for _, tid := range threads {
		lane := int(tid) % width
		th := &b.threads[tid]
		placed := false
		for _, w := range warps {
			if w.lanes[lane] != noLane {
				continue
			}
			if tlbAware && !t.cpmAdmits(w, th) {
				b.core.st.CPMRejects.Inc()
				continue
			}
			w.lanes[lane] = tid
			placed = true
			break
		}
		if !placed {
			w := newWarp()
			w.lanes[lane] = tid
		}
	}
	for _, w := range warps {
		// Attribute the dynamic warp to its first thread's original warp
		// for cache-allocation bookkeeping.
		for _, tid := range w.lanes {
			if tid != noLane {
				w.slot = b.threads[tid].origWarp
				break
			}
		}
		b.core.st.CompactedWarps.Inc()
		b.core.g.emit(Event{Cycle: now, Kind: EvCompact, Core: int16(b.core.id),
			Block: int32(b.id), Warp: int16(w.slot), A: uint64(pc), B: uint64(countLanes(w.lanes))})
	}
	return warps
}

// cpmAdmits checks the Common Page Matrix admission rule: the candidate's
// original warp must be saturated against the original warp of every thread
// already compacted into w.
func (t *tbcState) cpmAdmits(w *Warp, cand *Thread) bool {
	cpm := t.b.core.cpm
	for _, tid := range w.lanes {
		if tid == noLane {
			continue
		}
		if !cpm.Saturated(cand.origWarp, t.b.threads[tid].origWarp) {
			return false
		}
	}
	return true
}

// pruneWarps drops Done warps from the block's warp list.
func (b *Block) pruneWarps() {
	live := b.warps[:0]
	for _, w := range b.warps {
		if w.state != WDone {
			live = append(live, w)
		}
	}
	b.warps = live
	b.core.liveDirty = true
}
