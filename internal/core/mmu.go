package core

import (
	"gpummu/internal/config"
	"gpummu/internal/engine"
	"gpummu/internal/mem"
	"gpummu/internal/stats"
	"gpummu/internal/vm"
)

// PageReq is one distinct virtual page referenced by a warp memory
// instruction after coalescing (the paper coalesces intra-warp requests to
// the same PTE into a single TLB lookup).
type PageReq struct {
	VPN uint64
	// Warps lists the original warp IDs of the requesting threads
	// (normally one; several after thread block compaction). They feed
	// the TLB entry history and the Common Page Matrix.
	Warps []int
}

// PageResult reports the outcome of translating one PageReq.
type PageResult struct {
	VPN      uint64
	PBase    uint64
	ReadyAt  engine.Cycle // cycle the translation is available to the LSU
	Hit      bool
	Merged   bool // miss merged into an already-outstanding walk
	LRUDepth int  // LRU stack depth of the hit (TCWS weighting); -1 on miss
}

type outWalk struct {
	vpn  uint64
	done engine.Cycle
}

// MMU is one shader core's memory management unit: TLB, MSHRs, and page
// table walker(s), in all the paper's configurations. A disabled MMU
// models the no-TLB baseline: translation is functionally exact and free.
type MMU struct {
	cfg config.MMU
	sys *mem.System
	tr  *vm.Translator
	st  *stats.Sim

	tlb   *TLB
	ports *engine.Resource

	// Serial walkers: next-free cycle per hardware PTW.
	walkers []engine.Cycle
	// Scheduled mode: the single walker's reference issue port and the
	// PTE reuse table (combinational MSHR scan in hardware).
	issuePort engine.Cycle
	reuse     map[uint64]engine.Cycle

	outstanding []outWalk
	pending     map[uint64]engine.Cycle // vpn -> walk completion

	// walkerWalks counts completed walks per walk-state slot (serial mode)
	// or on slot 0 (scheduled and software modes, which model one logical
	// walker). Cumulative over the MMU's lifetime; observability only.
	walkerWalks []uint64

	cpm      *CPM         // non-nil only under TLB-aware TBC
	shared   *SharedTLB   // non-nil only with the shared-L2-TLB extension
	pwc      *PWC         // non-nil only with the page-walk-cache extension
	swWalker engine.Cycle // software-walk serialisation (the core runs the handler)
}

// NewMMU builds the MMU for one core. tr must be the address space's
// translator; sys the shared memory system; st the run's statistics sink.
func NewMMU(cfg config.MMU, sys *mem.System, tr *vm.Translator, st *stats.Sim, histLen int) *MMU {
	m := &MMU{cfg: cfg, sys: sys, tr: tr, st: st}
	if cfg.Enabled {
		m.tlb = NewTLB(cfg.Entries, cfg.Assoc, histLen)
		m.ports = engine.NewResource(cfg.Ports)
		wc := cfg.WalkConcurrency
		if wc < 1 {
			wc = 1
		}
		// Each hardware walker pipelines wc outstanding walks; a walk
		// occupies one of its walk-state slots for its full duration.
		m.walkers = make([]engine.Cycle, cfg.NumPTWs*wc)
		m.walkerWalks = make([]uint64, len(m.walkers))
		m.reuse = make(map[uint64]engine.Cycle)
		m.pending = make(map[uint64]engine.Cycle)
		if cfg.PWCEntries > 0 {
			m.pwc = NewPWC(cfg.PWCEntries)
		}
	}
	return m
}

// Config returns the MMU configuration.
func (m *MMU) Config() config.MMU { return m.cfg }

// TLB exposes the TLB (nil when disabled) for eviction hooks and tests.
func (m *MMU) TLB() *TLB { return m.tlb }

// AttachCPM wires a Common Page Matrix so TLB hits update it.
func (m *MMU) AttachCPM(c *CPM) { m.cpm = c }

// AttachSharedTLB wires the chip-level shared TLB extension: per-core
// misses probe it before walking, and walks fill it.
func (m *MMU) AttachSharedTLB(s *SharedTLB) { m.shared = s }

// AccessPenalty returns the extra cycles this TLB adds to every L1 access.
func (m *MMU) AccessPenalty() engine.Cycle {
	return engine.Cycle(m.cfg.AccessPenalty())
}

// prune retires completed walks and, when the walker goes idle, clears the
// PTE reuse window (the batch has dispersed).
func (m *MMU) prune(now engine.Cycle) {
	live := m.outstanding[:0]
	for _, w := range m.outstanding {
		if w.done > now {
			live = append(live, w)
		} else {
			delete(m.pending, w.vpn)
		}
	}
	m.outstanding = live
	if len(m.outstanding) == 0 && len(m.reuse) > 0 {
		clear(m.reuse)
	}
}

// CanAcceptMemOp reports whether a memory instruction may begin address
// translation at cycle now. A blocking TLB (the naive design) refuses while
// any walk is outstanding; hits-under-miss lifts that restriction.
func (m *MMU) CanAcceptMemOp(now engine.Cycle) bool {
	if !m.cfg.Enabled {
		return true
	}
	m.prune(now)
	blocking := !m.cfg.HitsUnderMiss || m.cfg.SoftwareWalks
	if blocking && len(m.outstanding) > 0 {
		return false
	}
	return true
}

// NextEvent returns the earliest cycle at which an outstanding walk
// completes (and the blocking gate may open), or 0 when none are in flight.
func (m *MMU) NextEvent(now engine.Cycle) engine.Cycle {
	if !m.cfg.Enabled {
		return 0
	}
	m.prune(now)
	var earliest engine.Cycle
	for _, w := range m.outstanding {
		if earliest == 0 || w.done < earliest {
			earliest = w.done
		}
	}
	return earliest
}

// OutstandingWalks reports in-flight walk count (diagnostics and tests).
func (m *MMU) OutstandingWalks(now engine.Cycle) int {
	m.prune(now)
	return len(m.outstanding)
}

// WalkerWalks returns the cumulative completed-walk count per walk-state
// slot (nil when the MMU is disabled). The slice is live; callers must not
// mutate it.
func (m *MMU) WalkerWalks() []uint64 { return m.walkerWalks }

// Occupancy reports how many walk-state slots and miss-status registers are
// busy at cycle now. Unlike OutstandingWalks it mutates nothing — prune
// clears the PTE reuse window as a side effect, which would perturb walk
// timing — so the interval sampler may call it at any cycle boundary without
// changing simulation output.
func (m *MMU) Occupancy(now engine.Cycle) (walkersBusy, mshrsUsed int) {
	if !m.cfg.Enabled {
		return 0, 0
	}
	for _, free := range m.walkers {
		if free > now {
			walkersBusy++
		}
	}
	if (m.cfg.PTWSched && m.issuePort > now) || (m.cfg.SoftwareWalks && m.swWalker > now) {
		walkersBusy++
	}
	for _, w := range m.outstanding {
		if w.done > now {
			mshrsUsed++
		}
	}
	return walkersBusy, mshrsUsed
}

// Lookup translates a warp's distinct page requests at cycle now. Results
// carry the cycle each translation becomes available; the LSU overlaps or
// serialises cache access around them according to the non-blocking flags.
func (m *MMU) Lookup(now engine.Cycle, reqs []PageReq) []PageResult {
	return m.LookupInto(now, reqs, nil)
}

// LookupInto is Lookup writing into a caller-provided result buffer, which
// is grown if too small and returned resliced to len(reqs). The LSU passes
// its per-core scratch buffer so steady-state translation allocates nothing.
// Requests are served in order, so a later request sees an earlier miss's
// TLB fill, pending walk, and MSHR occupancy.
func (m *MMU) LookupInto(now engine.Cycle, reqs []PageReq, dst []PageResult) []PageResult {
	var res []PageResult
	if cap(dst) >= len(reqs) {
		res = dst[:len(reqs)]
	} else {
		res = make([]PageResult, len(reqs))
	}
	if !m.cfg.Enabled {
		for i, r := range reqs {
			tr := m.tr.Lookup(r.VPN << m.tr.PageShift())
			res[i] = PageResult{VPN: r.VPN, PBase: tr.PageBase(), ReadyAt: now, Hit: true}
		}
		return res
	}
	m.prune(now)
	if m.cpm != nil {
		m.cpm.MaybeFlush(now)
	}
	for i := range reqs {
		if lookupAt, hit := m.lookupHit(now, reqs[i], &res[i]); !hit {
			m.lookupMiss(lookupAt, reqs[i], &res[i])
		}
	}
	return res
}

func reqWarp0(r PageReq) int {
	if len(r.Warps) > 0 {
		return r.Warps[0]
	}
	return -1
}

// lookupHit charges the TLB port and probes for r, filling *out on a hit.
// It returns the port cycle, from which a miss's service starts. The miss
// path leaves the TLB untouched (Lookup mutates recency/history only on
// hits).
func (m *MMU) lookupHit(now engine.Cycle, r PageReq, out *PageResult) (engine.Cycle, bool) {
	m.st.TLBAccesses.Inc()
	lookupAt := m.ports.Acquire(now, 1)
	if info, ok := m.tlb.Lookup(lookupAt, r.VPN, reqWarp0(r)); ok {
		m.st.TLBHits.Inc()
		if len(m.outstanding) > 0 {
			m.st.TLBHitUnder.Inc()
		}
		if m.cpm != nil {
			for _, w := range r.Warps {
				m.cpm.OnTLBHit(w, info.History)
			}
		}
		*out = PageResult{VPN: r.VPN, PBase: info.PBase, ReadyAt: lookupAt, Hit: true, LRUDepth: info.LRUDepth}
		return lookupAt, true
	}
	return lookupAt, false
}

// lookupMiss services a TLB miss whose port cycle was already charged:
// merge into a pending walk, or start a new walk (MSHR exhaustion, shared
// L2 TLB probe, walker timing) and fill the TLB.
func (m *MMU) lookupMiss(lookupAt engine.Cycle, r PageReq, out *PageResult) {
	m.st.TLBMisses.Inc()
	tr := m.tr.Lookup(r.VPN << m.tr.PageShift())
	var done engine.Cycle
	merged := false
	if d, ok := m.pending[r.VPN]; ok {
		done = d
		merged = true
	} else {
		reqAt := lookupAt
		// MSHR exhaustion delays the walk until the oldest
		// outstanding miss retires.
		if len(m.outstanding) >= m.cfg.MSHRs {
			earliest := m.outstanding[0].done
			for _, w := range m.outstanding[1:] {
				if w.done < earliest {
					earliest = w.done
				}
			}
			if earliest > reqAt {
				reqAt = earliest
			}
		}
		walked := true
		if m.shared != nil {
			if pbase, at, hit := m.shared.Probe(reqAt, r.VPN); hit {
				if pbase != tr.PageBase() {
					panic("core: shared TLB returned a stale translation")
				}
				done = at
				walked = false
			} else {
				reqAt = at // walk starts after the failed probe returns
			}
		}
		if walked {
			done = m.walk(reqAt, tr)
			if m.shared != nil {
				m.shared.Fill(done, r.VPN, tr.PageBase())
			}
			m.st.Walks.Inc()
			m.st.WalkLat.Observe(uint64(done - reqAt))
		}
		m.tlb.Fill(done, r.VPN, tr.PageBase(), reqWarp0(r))
		m.pending[r.VPN] = done
		m.outstanding = append(m.outstanding, outWalk{vpn: r.VPN, done: done})
	}
	m.st.TLBMissLat.Observe(uint64(done - lookupAt))
	*out = PageResult{VPN: r.VPN, PBase: tr.PageBase(), ReadyAt: done, Merged: merged, LRUDepth: -1}
}

// walk models one page table walk beginning no earlier than reqAt and
// returns its completion cycle. In naive mode a hardware walker is occupied
// for the whole serial walk; in scheduled mode references from concurrent
// walks interleave through a single issue port, reusing identical PTE
// fetches (paper figure 9).
func (m *MMU) walk(reqAt engine.Cycle, tr vm.Translation) engine.Cycle {
	if m.cfg.SoftwareWalks {
		m.walkerWalks[0]++
		return m.walkSoftware(reqAt, tr)
	}
	if m.cfg.PTWSched {
		m.walkerWalks[0]++
		return m.walkScheduled(reqAt, tr)
	}
	// Pick the earliest-free walker.
	best := 0
	for i := 1; i < len(m.walkers); i++ {
		if m.walkers[i] < m.walkers[best] {
			best = i
		}
	}
	m.walkerWalks[best]++
	cur := m.walkers[best]
	if cur < reqAt {
		cur = reqAt
	}
	cur = m.walkPTEs(cur, tr, false)
	m.walkers[best] = cur
	return cur
}

func (m *MMU) walkScheduled(reqAt engine.Cycle, tr vm.Translation) engine.Cycle {
	return m.walkPTEs(reqAt, tr, true)
}

// walkSoftware services a miss by interrupting the core and running an OS
// handler: a fixed interrupt/return overhead plus the serial page table
// loads, fully serialised (the core can run one handler at a time). This
// is the section 6.1 design option the paper rejects as slower.
func (m *MMU) walkSoftware(reqAt engine.Cycle, tr vm.Translation) engine.Cycle {
	cur := m.swWalker
	if cur < reqAt {
		cur = reqAt
	}
	cur += engine.Cycle(m.cfg.SoftwareWalkOverhead)
	for _, pa := range tr.PAs() {
		m.st.WalkRefs.Inc()
		done, _ := m.sys.Access(cur, pa, mem.ClassWalk)
		cur = done
	}
	m.swWalker = cur
	return cur
}

// WarmFill installs vpn -> pbase into the per-core TLB without charging
// ports, starting walks, or touching statistics. The sampled simulator uses
// it to model the TLB residency a fast-forwarded window would have left
// behind (internal/gpu.RunSampled). The fill is attributed to no warp, so
// TCWS victim attribution ignores any eviction it causes. No-op when the
// MMU is disabled.
func (m *MMU) WarmFill(now engine.Cycle, vpn, pbase uint64) {
	if !m.cfg.Enabled {
		return
	}
	m.tlb.Fill(now, vpn, pbase, -1)
}

// Shootdown flushes the TLB (inter-processor-interrupt semantics). The
// paper notes shootdowns essentially never fire in these workloads; the
// mechanism exists for completeness and tests.
func (m *MMU) Shootdown() {
	if m.tlb != nil {
		m.tlb.Flush()
	}
	if m.shared != nil {
		m.shared.Flush()
	}
	if m.pwc != nil {
		m.pwc.Flush()
	}
}
