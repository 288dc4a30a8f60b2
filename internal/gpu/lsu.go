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

// pendAccess snapshots one lane's functional access for commit-time replay.
// The snapshot is taken during coalescing because the warp's lane list can
// be compacted away before the commit runs; the thread's registers are
// core-private and stable between the two phases, so (thread, va) suffices.
type pendAccess struct {
	t  *Thread
	va uint64
}

// pendMiss is one L1 miss whose memory-system access was deferred: the
// compute phase resolved everything up to the MSHR gate (which depends on
// completion cycles only the shared memory system can provide).
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
	warpSets [][]int      // per-page Warps backing arrays, parallel to reqs
	warpBits []uint64     // per-page origWarp bitsets, words uint64s per page
	words    int          // bitset words per page: ceil(WarpsPerCore/64)
	accs     []pendAccess // functional accesses deferred to commit
	misses   []pendMiss   // L1 misses deferred to commit (all-TLB-hit path)
}

// pendMem is the suspended remainder of the memory instruction a core
// issued this cycle (at most one: cores issue a single instruction per
// tick). tlbDone distinguishes the two suspension points: either every page
// hit the TLB and only the deferred misses in scratch remain, or translation
// itself suspended at its first TLB miss and the whole downstream path —
// remaining lookups, result hooks, and the L1 line loop — runs at commit.
type pendMem struct {
	active  bool
	tlbDone bool
	w       *Warp
	in      *kernels.Instr
	at      engine.Cycle // issue cycle
	ls      core.LookupState
	done    engine.Cycle // all-hit path: max completion over compute-resolved lines
	// maxReady carries the slowest walk completion from the translate batch
	// to the data batch on the suspended path (commitTranslate computes it,
	// commitData's L1 line loop consumes it).
	maxReady engine.Cycle
}

// execMem executes one warp-level memory instruction start to finish: the
// core-private compute half immediately followed by the shared-state commit
// batches. Unit tests drive it directly; the run loop instead calls
// execMemCompute from the (possibly parallel) compute phase and the commit
// batches from the serial commit phase, grouped per subsystem across cores
// (DESIGN.md §14).
func (c *Core) execMem(now engine.Cycle, w *Warp, in *kernels.Instr) {
	c.execMemCompute(now, w, in)
	c.commitFunc()
	c.commitTranslate()
	c.commitData()
}

// execMemCompute is the core-private half of one warp-level memory
// instruction: coalescing, parallel TLB + L1 access, miss handling. This is
// where the paper's design space plays out:
//
//   - intra-warp requests to the same PTE coalesce into one TLB lookup;
//   - the TLB is accessed in parallel with the virtually indexed L1, so TLB
//     size only costs through the AccessPenalty;
//   - without CacheOverlap every line access waits for the warp's slowest
//     walk; with it, lanes that hit the TLB access the L1 immediately and
//     lanes that missed start as soon as their own walk completes.
//
// Functional data movement always waits for commit (the heap is shared, and
// same-cycle cross-core store→load ordering must follow core-id order). The
// timing path runs here as far as exactness allows: translation suspends at
// its first TLB miss (the miss path walks through the shared memory
// system), and when every page hits, the L1 loop runs with only the
// miss-path System.Access calls recorded for commit.
func (c *Core) execMemCompute(now engine.Cycle, w *Warp, in *kernels.Instr) {
	st := c.st
	lineShift := c.g.sys.LineShift()
	pageShift := c.g.cfg.PageShift
	isStore := in.Kind == kernels.KindStore

	c.coalesceMem(w, in, isStore)
	sc := &c.scratch
	st.MemInstrs.Inc()
	st.PageDivergence.Observe(len(sc.reqs))
	st.LineDivergence.Observe(len(sc.lines))
	p := &c.pend
	p.w, p.in, p.at = w, in, now
	if len(sc.lines) == 0 {
		// All lanes were inactive (can happen transiently around exits).
		w.readyAt = now + 1
		c.advance(now, w, w.curPC()+1)
		return
	}
	p.active = true

	// Address translation for each distinct page (TLB-side portion).
	sc.results, p.ls = c.mmu.LookupCompute(now, sc.reqs, sc.results)
	if !p.ls.Done(sc.reqs) {
		// Translation suspended at a TLB miss. Even the already-translated
		// prefix's scheduler hooks must wait: serially they run after the
		// whole lookup, whose miss-path TLB fills can evict into TCWS
		// victim tag arrays that those hooks then observe.
		p.tlbDone = false
		return
	}
	p.tlbDone = true

	results := sc.results
	maxReady := engine.Cycle(0)
	for i := range results {
		r := &results[i]
		if r.ReadyAt > maxReady {
			maxReady = r.ReadyAt
		}
		if c.mmu.Config().Enabled {
			c.sched.onTLBHit(w.slot, r.LRUDepth)
		}
	}

	overlap := c.mmu.Config().CacheOverlap || !c.mmu.Config().Enabled
	penalty := c.mmu.AccessPenalty()
	pageMask := (uint64(1) << pageShift) - 1

	// L1 for each distinct line; every start time is known (no page missed),
	// so only the miss-path memory-system accesses defer.
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
	p.done = done
}

// commitFunc replays the cycle's buffered functional accesses against the
// shared heap — the physical-memory batch of the commit phase. Replay order
// inside a core matches the lanes' serial position during coalescing;
// across cores the batch runs in ascending core-id order.
func (c *Core) commitFunc() {
	sc := &c.scratch
	if len(sc.accs) == 0 {
		return
	}
	in := c.pend.in
	isStore := in.Kind == kernels.KindStore
	for i := range sc.accs {
		a := &sc.accs[i]
		c.funcAccess(a.t, a.va, in, isStore)
	}
	sc.accs = sc.accs[:0]
}

// commitTranslate finishes a translation that suspended at its first TLB
// miss — the shared-TLB/walker batch of the commit phase. It runs the
// remaining lookups (whose miss paths walk through the shared memory
// system) and the per-result scheduler hooks, and records the slowest walk
// completion for commitData's L1 line loop. Cores whose translation fully
// resolved during compute (every page hit) have nothing to do here.
func (c *Core) commitTranslate() {
	p := &c.pend
	if !p.active || p.tlbDone {
		return
	}
	sc := &c.scratch
	w := p.w
	at := p.at
	b := w.block
	c.mmu.LookupCommit(at, sc.reqs, sc.results, p.ls)
	results := sc.results
	maxReady := engine.Cycle(0)
	for i := range results {
		r := &results[i]
		if r.ReadyAt > maxReady {
			maxReady = r.ReadyAt
		}
		if r.Hit {
			c.sched.onTLBHit(w.slot, r.LRUDepth)
		} else {
			c.sched.onTLBMiss(w.slot, r.VPN)
			if c.g.tracer != nil {
				c.emit(Event{Cycle: at, Kind: EvTLBMiss, Core: int16(c.id),
					Block: int32(b.id), Warp: int16(w.slot), A: r.VPN, B: uint64(r.ReadyAt)})
				c.emit(Event{Cycle: r.ReadyAt, Kind: EvWalkDone, Core: int16(c.id),
					Block: int32(b.id), Warp: int16(w.slot), A: r.VPN, B: uint64(r.ReadyAt - at)})
			}
		}
	}
	p.maxReady = maxReady
}

// commitData applies the data-path remainder of the cycle's memory
// instruction — the icnt/L2/DRAM batch of the commit phase — and retires
// the instruction (warp ready time, PC advance). On the all-TLB-hit path
// only the deferred L1 misses' memory-system accesses remain; on the
// suspended path the whole L1 line loop runs here, its start times coming
// from commitTranslate's maxReady.
func (c *Core) commitData() {
	p := &c.pend
	if !p.active {
		return
	}
	p.active = false
	w := p.w
	st := c.st
	sc := &c.scratch

	if p.tlbDone {
		// Only the L1 misses' memory-system accesses remain. A free
		// miss-status register gates entry into the memory system; this is
		// the flow control that keeps one core from flooding the
		// interconnect (GPGPU-Sim models the same limit).
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
		c.advance(p.at, w, w.curPC()+1)
		return
	}

	// Translation suspended: run the L1 line loop exactly as the serial
	// path would have, downstream of the walks commitTranslate finished.
	at := p.at
	lineShift := c.g.sys.LineShift()
	pageMask := (uint64(1) << c.g.cfg.PageShift) - 1
	results := sc.results
	maxReady := p.maxReady

	overlap := c.mmu.Config().CacheOverlap
	penalty := c.mmu.AccessPenalty()
	done := maxReady
	for _, lr := range sc.lines {
		r := &results[lr.pageIdx]
		start := maxReady
		if overlap {
			start = r.ReadyAt
		}
		start += penalty
		s := c.l1Port.Acquire(start, 1+int(penalty))
		pa := r.PBase | ((lr.lineVA << lineShift) & pageMask)

		st.L1Accesses.Inc()
		hit, ev, evicted := c.l1.Access(pa, w.slot)
		if evicted {
			c.sched.onL1Evict(ev)
		}
		var fin engine.Cycle
		if hit {
			st.L1Hits.Inc()
			fin = s + engine.Cycle(c.g.cfg.L1Latency)
		} else {
			st.L1Misses.Inc()
			mi := 0
			for j := 1; j < len(c.l1MSHRs); j++ {
				if c.l1MSHRs[j] < c.l1MSHRs[mi] {
					mi = j
				}
			}
			start := s + engine.Cycle(c.g.cfg.L1Latency)
			if c.l1MSHRs[mi] > start {
				start = c.l1MSHRs[mi]
			}
			fin, _ = c.g.sys.Access(start, pa, mem.ClassData)
			c.l1MSHRs[mi] = fin
			st.L1MissLat.Observe(uint64(fin - start))
			c.sched.onL1Miss(w.slot, pa>>lineShift, !r.Hit)
		}
		if fin > done {
			done = fin
		}
	}

	w.readyAt = done
	c.advance(at, w, w.curPC()+1)
}

// coalesceMem groups the warp's active lanes into distinct cache lines and
// distinct pages — both in first-appearance order, as the hardware
// coalescer's comparator tree produces them — attributes each page to the
// original warps of its requesting threads (one entry per origWarp, via a
// per-page bitset), and snapshots each lane's functional access for replay
// at commit (functional memory is shared across cores, so the accesses must
// land in canonical core order). Results land in c.scratch: lines, accs,
// and reqs whose Warps alias warpSets.
func (c *Core) coalesceMem(w *Warp, in *kernels.Instr, isStore bool) {
	b := w.block
	lineShift := c.g.sys.LineShift()
	pageShift := c.g.cfg.PageShift
	sc := &c.scratch
	sc.lines = sc.lines[:0]
	sc.reqs = sc.reqs[:0]
	sc.accs = sc.accs[:0]
	for _, tid := range w.curLanes() {
		if tid == noLane {
			continue
		}
		t := &b.threads[tid]
		va := t.regs[in.A] + uint64(in.Imm)
		sc.accs = append(sc.accs, pendAccess{t: t, va: va})

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
}

// funcAccess performs the functional load/store for one lane.
func (c *Core) funcAccess(t *Thread, va uint64, in *kernels.Instr, isStore bool) {
	pa := c.g.tr.Translate(va)
	m := c.g.as.Mem
	if isStore {
		v := t.regs[in.B]
		switch in.Size {
		case 1:
			m.WriteU8(pa, byte(v))
		case 4:
			m.Write32(pa, uint32(v))
		default:
			m.Write64(pa, v)
		}
		return
	}
	var v uint64
	switch in.Size {
	case 1:
		v = uint64(m.ReadU8(pa))
	case 4:
		v = uint64(m.Read32(pa))
	default:
		v = m.Read64(pa)
	}
	t.regs[in.Dst] = v
}
