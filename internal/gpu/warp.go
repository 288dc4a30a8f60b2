package gpu

import (
	"gpummu/internal/config"
	"gpummu/internal/engine"
	"gpummu/internal/kernels"
)

// wstate is a warp's scheduling state.
type wstate uint8

// Warp states.
const (
	WReady   wstate = iota // may issue when readyAt passes
	WBarrier               // waiting at a block-wide barrier
	WTBCWait               // waiting for block-wide branch synchronisation
	WDone                  // all lanes exited
)

// noLane marks an empty SIMD lane.
const noLane = int32(-1)

// simtEntry is one level of a per-warp reconvergence stack: an execution
// context (pc + active lanes) that resumes when control reaches rpc.
type simtEntry struct {
	pc    int32
	rpc   int32 // reconvergence pc; -1 for the root entry (never matches)
	lanes []int32
}

// Warp is the minimum scheduling unit: up to WarpWidth threads executing in
// lock-step. Under classic divergence handling the warp carries a SIMT
// stack; under TBC the warp is a flat lane assignment owned by a tbcEntry.
type Warp struct {
	block *Block
	slot  int // core-level scheduler slot (original warp id for static warps)

	state   wstate
	readyAt engine.Cycle

	// Stack mode: stack[len-1] is the executing context.
	stack []simtEntry

	// TBC mode: flat context plus owner entry.
	pc    int32
	lanes []int32
	entry *tbcEntry
}

// top returns the executing stack entry (stack mode only).
func (w *Warp) top() *simtEntry { return &w.stack[len(w.stack)-1] }

// curPC returns the warp's current program counter.
func (w *Warp) curPC() int32 {
	if w.entry != nil || w.stack == nil {
		return w.pc
	}
	return w.top().pc
}

// curLanes returns the active lane assignment.
func (w *Warp) curLanes() []int32 {
	if w.entry != nil || w.stack == nil {
		return w.lanes
	}
	return w.top().lanes
}

// setPC moves the warp to pc and, in stack mode, pops any entries whose
// reconvergence point has been reached.
func (w *Warp) setPC(pc int32) {
	if w.entry != nil || w.stack == nil {
		w.pc = pc
		return
	}
	w.top().pc = pc
	w.reconverge()
}

// reconverge pops completed stack entries: contexts that reached their rpc
// and contexts whose lanes have all exited.
func (w *Warp) reconverge() {
	for len(w.stack) > 0 {
		t := w.top()
		if t.rpc >= 0 && t.pc == t.rpc {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if countLanes(t.lanes) == 0 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return
	}
	w.state = WDone
	w.block.core.liveDirty = true
}

// removeThread erases a thread from every context of the warp (thread
// exit). In stack mode it walks all entries; in TBC mode just the lanes.
func (w *Warp) removeThread(tid int32) {
	if w.entry != nil || w.stack == nil {
		clearLane(w.lanes, tid)
		return
	}
	for i := range w.stack {
		clearLane(w.stack[i].lanes, tid)
	}
}

func clearLane(lanes []int32, tid int32) {
	for i, t := range lanes {
		if t == tid {
			lanes[i] = noLane
		}
	}
}

func countLanes(lanes []int32) int {
	n := 0
	for _, t := range lanes {
		if t != noLane {
			n++
		}
	}
	return n
}

// Block is one resident thread block: its threads' architectural state and
// the warps currently executing them.
type Block struct {
	core    *Core
	id      int // grid-wide block id
	slotIdx int // residency slot on the core (warp slot base / warpsPerBlock)

	threads     []Thread
	warps       []*Warp
	liveThreads int

	barrierCount int
	tbc          *tbcState
}

// Thread is one thread's architectural state.
type Thread struct {
	regs     [kernels.NumRegs]uint64
	exited   bool
	btid     int32 // thread id within the block
	origWarp int   // core-level slot of the thread's original warp
}

func newBlock(c *Core, id, slotIdx int) *Block {
	l := c.g.launch
	width := c.g.cfg.WarpWidth
	nWarps := c.warpsPerBlock()
	b := &Block{
		core:        c,
		id:          id,
		slotIdx:     slotIdx,
		threads:     make([]Thread, l.BlockDim),
		liveThreads: l.BlockDim,
	}
	slotBase := slotIdx * nWarps
	for i := range b.threads {
		t := &b.threads[i]
		t.btid = int32(i)
		t.origWarp = slotBase + i/width
	}
	for wi := 0; wi < nWarps; wi++ {
		lanes := make([]int32, width)
		for l := range lanes {
			tid := wi*width + l
			if tid < len(b.threads) {
				lanes[l] = int32(tid)
			} else {
				lanes[l] = noLane
			}
		}
		w := &Warp{block: b, slot: slotBase + wi, state: WReady}
		if c.g.cfg.TBC.Mode == config.DivStack {
			w.stack = []simtEntry{{pc: 0, rpc: -1, lanes: lanes}}
		} else {
			w.pc = 0
			w.lanes = lanes
		}
		b.warps = append(b.warps, w)
	}
	if c.g.cfg.TBC.Mode != config.DivStack {
		b.tbc = newTBCState(b)
	}
	return b
}

// liveWarpCount counts warps that have not finished.
func (b *Block) liveWarpCount() int {
	n := 0
	for _, w := range b.warps {
		if w.state != WDone {
			n++
		}
	}
	return n
}

// maybeRetire retires the block at cycle now once every thread exited.
func (b *Block) maybeRetire(now engine.Cycle) {
	if b.liveThreads == 0 && b.liveWarpCount() == 0 {
		b.core.retireBlock(b, now)
	}
}
