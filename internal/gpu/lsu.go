package gpu

import (
	"gpummu/internal/core"
	"gpummu/internal/engine"
	"gpummu/internal/kernels"
	"gpummu/internal/mem"
)

// lineReq is one coalesced cache-line access of a warp memory instruction.
type lineReq struct {
	lineVA  uint64 // virtual address >> lineShift
	pageIdx int    // index into the instruction's PageReq/PageResult slices
}

// pendMiss is one L1 miss the tick leaves for the data pass: the cycle it
// is ready to enter the memory system, before the wait for a free
// miss-status register, and its physical address.
type pendMiss struct {
	startBase engine.Cycle // port grant + L1 latency; MSHR wait applies on top
	pa        uint64
}

// memScratch holds execMem's per-instruction coalescing buffers. Each Core
// owns exactly one and reuses it across instructions, so the steady-state
// memory path performs no heap allocation. The buffers must never be shared
// across cores (see DESIGN.md "Performance model").
type memScratch struct {
	lines    []lineReq
	reqs     []core.PageReq
	results  []core.PageResult
	warpSets [][]int    // per-page Warps backing arrays, parallel to reqs
	warpBits []uint64   // per-page origWarp bitsets, words uint64s per page
	words    int        // bitset words per page: ceil(WarpsPerCore/64)
	misses   []pendMiss // L1 misses left for the data pass, in line order
}

// pendMem is the data-pass remainder of the memory instruction a core
// issued this step (at most one: cores issue a single instruction per
// tick): the warp, and the latest completion among the accesses the tick
// resolved. Its L1 misses wait in scratch.misses.
type pendMem struct {
	w    *Warp
	done engine.Cycle
}

// execMem executes one warp-level memory instruction up to its L1 misses:
// coalescing, the functional loads and stores, address translation, and
// the L1 access of every line. This is where the paper's design space
// plays out:
//
//   - intra-warp requests to the same PTE coalesce into one TLB lookup;
//   - the TLB is accessed in parallel with the virtually indexed L1, so TLB
//     size only costs through the AccessPenalty;
//   - without CacheOverlap every line access waits for the warp's slowest
//     walk; with it, lanes that hit the TLB access the L1 immediately and
//     lanes that missed start as soon as their own walk completes.
//
// Translation runs here in full, so a TLB miss's walk references reach
// the shared L2 and DRAM during the tick pass. The L1 misses are only
// recorded: commitData sends them during the data pass, after every
// core's walks of the step (DESIGN.md "Tick pass and data pass").
func (c *Core) execMem(now engine.Cycle, w *Warp, in *kernels.Instr) {
	st := c.st
	lineShift := c.g.sys.LineShift()
	pageShift := c.g.cfg.PageShift
	isStore := in.Kind == kernels.KindStore

	c.coalesceMem(w, in, isStore)
	sc := &c.scratch
	st.MemInstrs.Inc()
	st.PageDivergence.Observe(len(sc.reqs))
	st.LineDivergence.Observe(len(sc.lines))
	if len(sc.lines) == 0 {
		// All lanes were inactive (can happen transiently around exits).
		w.readyAt = now + 1
		c.advance(now, w, w.curPC()+1)
		return
	}

	// Address translation for each distinct page.
	sc.results = c.mmu.LookupInto(now, sc.reqs, sc.results)
	results := sc.results
	mmuOn := c.mmu.Config().Enabled
	b := w.block
	maxReady := engine.Cycle(0)
	for i := range results {
		r := &results[i]
		if r.ReadyAt > maxReady {
			maxReady = r.ReadyAt
		}
		if !mmuOn {
			continue
		}
		if r.Hit {
			c.sched.onTLBHit(w.slot, r.LRUDepth)
		} else {
			c.sched.onTLBMiss(w.slot, r.VPN)
			if c.g.tracer != nil {
				c.g.emit(Event{Cycle: now, Kind: EvTLBMiss, Core: int16(c.id),
					Block: int32(b.id), Warp: int16(w.slot), A: r.VPN, B: uint64(r.ReadyAt)})
				c.g.emit(Event{Cycle: r.ReadyAt, Kind: EvWalkDone, Core: int16(c.id),
					Block: int32(b.id), Warp: int16(w.slot), A: r.VPN, B: uint64(r.ReadyAt - now)})
			}
		}
	}

	overlap := c.mmu.Config().CacheOverlap || !mmuOn
	penalty := c.mmu.AccessPenalty()
	pageMask := (uint64(1) << pageShift) - 1

	// L1 for each distinct line.
	sc.misses = sc.misses[:0]
	done := maxReady
	for _, lr := range sc.lines {
		r := &results[lr.pageIdx]
		start := maxReady
		if overlap {
			start = r.ReadyAt
		}
		start += penalty
		// An oversized TLB also gates the L1 access pipeline: every
		// access occupies it for the extra translation cycles, costing
		// bandwidth as well as latency (the paper's figure 6 effect).
		s := c.l1Port.Acquire(start, 1+int(penalty))
		pa := r.PBase | ((lr.lineVA << lineShift) & pageMask)

		st.L1Accesses.Inc()
		hit, ev, evicted := c.l1.Access(pa, w.slot)
		if evicted {
			c.sched.onL1Evict(ev)
		}
		if hit {
			st.L1Hits.Inc()
			fin := s + engine.Cycle(c.g.cfg.L1Latency)
			if fin > done {
				done = fin
			}
		} else {
			st.L1Misses.Inc()
			sc.misses = append(sc.misses, pendMiss{startBase: s + engine.Cycle(c.g.cfg.L1Latency), pa: pa})
			c.sched.onL1Miss(w.slot, pa>>lineShift, !r.Hit)
		}
	}
	c.pend = pendMem{w: w, done: done}
	// The PC moves now, not in the data pass: under TBC, reaching the
	// reconvergence point can compact warps, whose trace events belong to
	// this core's turn in the tick pass.
	c.advance(now, w, w.curPC()+1)
}

// commitData is the core's turn in the data pass of a step: it sends the
// L1 misses of the memory instruction its tick issued into the memory
// system, in line order, and sets the warp's ready time to the latest
// completion. A free miss-status register gates entry into the memory
// system; this is the flow control that keeps one core from flooding the
// interconnect (GPGPU-Sim models the same limit).
func (c *Core) commitData() {
	p := &c.pend
	w := p.w
	if w == nil {
		return
	}
	p.w = nil
	st := c.st
	sc := &c.scratch
	done := p.done
	for i := range sc.misses {
		ms := &sc.misses[i]
		mi := 0
		for j := 1; j < len(c.l1MSHRs); j++ {
			if c.l1MSHRs[j] < c.l1MSHRs[mi] {
				mi = j
			}
		}
		start := ms.startBase
		if c.l1MSHRs[mi] > start {
			start = c.l1MSHRs[mi]
		}
		fin, _ := c.g.sys.Access(start, ms.pa, mem.ClassData)
		c.l1MSHRs[mi] = fin
		st.L1MissLat.Observe(uint64(fin - start))
		if fin > done {
			done = fin
		}
	}
	sc.misses = sc.misses[:0]
	w.readyAt = done
}

// coalesceMem groups the warp's active lanes into distinct cache lines and
// distinct pages — both in first-appearance order, as the hardware
// coalescer's comparator tree produces them — attributes each page to the
// original warps of its requesting threads (one entry per origWarp, via a
// per-page bitset), and then performs each lane's functional load or store
// in lane order. Results land in c.scratch: lines, and reqs whose Warps
// alias warpSets.
func (c *Core) coalesceMem(w *Warp, in *kernels.Instr, isStore bool) {
	b := w.block
	lineShift := c.g.sys.LineShift()
	pageShift := c.g.cfg.PageShift
	sc := &c.scratch
	sc.lines = sc.lines[:0]
	sc.reqs = sc.reqs[:0]
	lanes := w.curLanes()
	addr, imm := b.reg(in.A), uint64(in.Imm)
	for _, tid := range lanes {
		if tid == noLane {
			continue
		}
		t := &b.threads[tid]
		va := addr[tid] + imm

		vpn := va >> pageShift
		pi := -1
		for i := range sc.reqs {
			if sc.reqs[i].VPN == vpn {
				pi = i
				break
			}
		}
		if pi < 0 {
			pi = len(sc.reqs)
			sc.reqs = append(sc.reqs, core.PageReq{VPN: vpn})
			if pi < len(sc.warpSets) {
				sc.warpSets[pi] = sc.warpSets[pi][:0]
			} else {
				sc.warpSets = append(sc.warpSets, nil)
			}
			for len(sc.warpBits) < (pi+1)*sc.words {
				sc.warpBits = append(sc.warpBits, 0)
			}
			clear(sc.warpBits[pi*sc.words : (pi+1)*sc.words])
		}

		lv := va >> lineShift
		seen := false
		for i := range sc.lines {
			if sc.lines[i].lineVA == lv {
				seen = true
				break
			}
		}
		if !seen {
			sc.lines = append(sc.lines, lineReq{lineVA: lv, pageIdx: pi})
		}

		word := pi*sc.words + t.origWarp>>6
		mask := uint64(1) << (uint(t.origWarp) & 63)
		if sc.warpBits[word]&mask == 0 {
			sc.warpBits[word] |= mask
			sc.warpSets[pi] = append(sc.warpSets[pi], t.origWarp)
		}
	}
	// Wire the Warps views only after all appends: an append may move a
	// warpSet's backing array.
	for i := range sc.reqs {
		sc.reqs[i].Warps = sc.warpSets[i]
	}
	c.funcAccess(b, lanes, in, isStore)
}

// funcAccess performs the functional load or store of each active lane, in
// lane order, through the translator's frame cache. It runs after
// coalescing has read every lane's address, and each lane reads its address
// before its load writes the destination, so the destination may alias the
// address register.
func (c *Core) funcAccess(b *Block, lanes []int32, in *kernels.Instr, isStore bool) {
	tr := c.g.tr
	addr, imm, size := b.reg(in.A), uint64(in.Imm), int(in.Size)
	if isStore {
		v := b.reg(in.B)
		for _, tid := range lanes {
			if tid != noLane {
				tr.Store(addr[tid]+imm, size, v[tid])
			}
		}
		return
	}
	dst := b.reg(in.Dst)
	for _, tid := range lanes {
		if tid != noLane {
			dst[tid] = tr.Load(addr[tid]+imm, size)
		}
	}
}
