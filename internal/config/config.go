// Package config defines the hardware and policy configuration space the
// paper explores, plus presets matching its section 5.2 methodology. It has
// no dependencies so every subsystem can import it.
package config

import (
	"fmt"
	"strconv"
)

// SchedulerPolicy selects the warp scheduler.
type SchedulerPolicy uint8

const (
	// SchedLRR is loose round-robin, the paper's baseline scheduler.
	SchedLRR SchedulerPolicy = iota
	// SchedGTO is greedy-then-oldest, a common alternative baseline.
	SchedGTO
	// SchedCCWS is cache-conscious wavefront scheduling (Rogers et al.),
	// with cache-line victim tag arrays (paper section 7.1).
	SchedCCWS
	// SchedTACCWS is TLB-aware CCWS: lost-locality scores weight cache
	// misses accompanied by TLB misses more heavily (section 7.2).
	SchedTACCWS
	// SchedTCWS is TLB-conscious warp scheduling: VTAs hold virtual page
	// tags, probed on TLB misses, with LRU-depth-weighted score updates
	// on TLB hits (section 7.2).
	SchedTCWS
)

// String implements fmt.Stringer.
func (p SchedulerPolicy) String() string {
	switch p {
	case SchedLRR:
		return "lrr"
	case SchedGTO:
		return "gto"
	case SchedCCWS:
		return "ccws"
	case SchedTACCWS:
		return "ta-ccws"
	case SchedTCWS:
		return "tcws"
	}
	return fmt.Sprintf("sched(%d)", p)
}

// DivergenceMode selects branch divergence handling.
type DivergenceMode uint8

const (
	// DivStack is the classic per-warp reconvergence stack.
	DivStack DivergenceMode = iota
	// DivTBC is thread block compaction (Fung & Aamodt), TLB-agnostic.
	DivTBC
	// DivTLBTBC is the paper's TLB-aware TBC with CPM-gated compaction.
	DivTLBTBC
)

// String implements fmt.Stringer.
func (d DivergenceMode) String() string {
	switch d {
	case DivStack:
		return "stack"
	case DivTBC:
		return "tbc"
	case DivTLBTBC:
		return "tlb-tbc"
	}
	return fmt.Sprintf("div(%d)", d)
}

// MMU configures the per-core TLB and page table walkers: the paper's
// design space (section 6.1).
type MMU struct {
	// Enabled false gives the paper's no-TLB baseline: translation is
	// functionally correct but costs zero cycles.
	Enabled bool

	Entries int // total TLB entries (64..512 in the paper)
	Assoc   int // set associativity (paper assumes 4-way)
	Ports   int // lookups the TLB can start per cycle (3..32)

	// IdealLatency disables the CACTI-style access-time penalty so the
	// "impractical ideal" 512-entry 32-port configuration can be modelled.
	IdealLatency bool

	// HitsUnderMiss allows other warps' TLB hits while misses are pending
	// (first non-blocking augmentation, section 6.3).
	HitsUnderMiss bool
	// CacheOverlap lets lanes that hit in the TLB access the L1 without
	// waiting for the warp's outstanding walks (second augmentation).
	CacheOverlap bool
	// PTWSched enables the coalescing page-table-walk scheduler
	// (comparator-tree batching, section 6.3).
	PTWSched bool

	NumPTWs int // hardware walkers per core (paper: 1 baseline, up to 8)
	MSHRs   int // TLB miss-status registers per core (paper: 32)

	// SharedTLBEntries, when nonzero, adds a chip-level shared L2 TLB of
	// that many entries (4-way) probed on per-core misses before walking —
	// an extension in the paper's section 10 follow-up direction.
	SharedTLBEntries int
	// SharedTLBLatency is the round-trip cost of probing the shared tier.
	SharedTLBLatency int

	// PWCEntries, when nonzero, gives each walker a page walk cache of
	// that many entries holding upper-level PTEs (PML4/PDP/PD), skipping
	// their memory references on a hit — the translation-caching direction
	// of Barr et al. (ISCA 2010), an extension beyond the paper's designs.
	PWCEntries int

	// SoftwareWalks services TLB misses by interrupting execution and
	// running an OS handler instead of using hardware walkers — the
	// section 6.1 design option the paper rejects. Each walk pays
	// SoftwareWalkOverhead cycles on top of its memory references, and the
	// TLB behaves as fully blocking regardless of HitsUnderMiss.
	SoftwareWalks        bool
	SoftwareWalkOverhead int

	// WalkConcurrency is how many outstanding walks one hardware walker
	// pipelines (walk state registers). The paper's quantitative results
	// (figure 2's 20-50% degradations at 22-70% miss rates, figure 4's
	// ~2x miss penalty) are only reachable if a walker overlaps a few
	// walks; fully serial walkers would saturate and produce far deeper
	// losses. 4 reproduces the paper's operating point. See DESIGN.md.
	WalkConcurrency int
}

// Ideal returns the impractical reference TLB the paper compares against:
// 512 entries, 32 ports, no access-latency penalty, fully augmented.
func (m MMU) Ideal() MMU {
	m.Enabled = true
	m.Entries = 512
	m.Ports = 32
	m.IdealLatency = true
	m.HitsUnderMiss = true
	m.CacheOverlap = true
	m.PTWSched = true
	if m.Assoc == 0 {
		m.Assoc = 4
	}
	if m.NumPTWs == 0 {
		m.NumPTWs = 1
	}
	if m.MSHRs == 0 {
		m.MSHRs = 32
	}
	if m.WalkConcurrency == 0 {
		m.WalkConcurrency = 4
	}
	return m
}

// AccessPenalty returns the extra cycles a TLB of this size adds to every
// L1 access (translation must complete by set-select time). The numbers
// follow the paper's CACTI finding: 128 entries is the largest size that
// does not slow a 32 KB L1 down.
func (m MMU) AccessPenalty() int {
	if !m.Enabled || m.IdealLatency {
		return 0
	}
	switch {
	case m.Entries <= 128:
		return 0
	case m.Entries <= 256:
		return 4
	default:
		return 8
	}
}

// Key returns a canonical string covering every MMU field. Two MMU values
// have equal keys if and only if they are semantically identical; the
// experiment executor dedupes runs by it, so it must never alias distinct
// configurations. Keep in sync with the struct (TestHardwareKeyCoversEveryField
// fails if a field is added but not folded in here).
func (m MMU) Key() string { return string(m.appendKey(nil)) }

func (m MMU) appendKey(k key) key {
	return k.bool("mmu:on=", m.Enabled).int(",e=", m.Entries).int(",a=", m.Assoc).int(",p=", m.Ports).
		bool(",ideal=", m.IdealLatency).bool(",hum=", m.HitsUnderMiss).bool(",ovl=", m.CacheOverlap).
		bool(",ptws=", m.PTWSched).int(",nptw=", m.NumPTWs).int(",mshr=", m.MSHRs).
		int(",stlb=", m.SharedTLBEntries).int(",stlblat=", m.SharedTLBLatency).int(",pwc=", m.PWCEntries).
		bool(",sw=", m.SoftwareWalks).int(",swov=", m.SoftwareWalkOverhead).int(",wc=", m.WalkConcurrency)
}

// key is a Key string under construction. Each method appends a label and
// a value formatted as fmt's %d or %t would, without fmt's cost: campaign
// planning builds one Key per planned run.
type key []byte

func (k key) int(label string, v int) key {
	return strconv.AppendInt(append(k, label...), int64(v), 10)
}

func (k key) uint(label string, v uint64) key {
	return strconv.AppendUint(append(k, label...), v, 10)
}

func (k key) bool(label string, v bool) key {
	return strconv.AppendBool(append(k, label...), v)
}

// Scheduler configures warp scheduling and the CCWS family.
type Scheduler struct {
	Policy SchedulerPolicy

	// VTAEntriesPerWarp and VTAAssoc size the victim tag arrays
	// (paper: 16-entry, 8-way for CCWS; TCWS sweeps 2..16).
	VTAEntriesPerWarp int
	VTAAssoc          int

	// LLSCutoff is the lost-locality score sum beyond which the
	// scheduling pool is restricted.
	LLSCutoff int
	// ActivePool is how many top-scoring warps stay schedulable while
	// restricted.
	ActivePool int
	// DecayPeriod halves all scores every this many cycles so throttling
	// releases when locality recovers.
	DecayPeriod int

	// TLBMissWeight is TA-CCWS's x in x:1 weighting of cache misses that
	// carry TLB misses (power of two; 1 disables the distinction).
	TLBMissWeight int

	// LRUDepthWeights are TCWS's per-LRU-depth score increments on TLB
	// hits (e.g. {1,2,4,8}); nil disables hit-based updates.
	LRUDepthWeights []int
}

// Key returns a canonical string covering every Scheduler field (see
// MMU.Key for the contract).
func (s Scheduler) Key() string { return string(s.appendKey(nil)) }

func (s Scheduler) appendKey(k key) key {
	k = k.uint("sched:pol=", uint64(s.Policy)).int(",vta=", s.VTAEntriesPerWarp).int(",vtaa=", s.VTAAssoc).
		int(",lls=", s.LLSCutoff).int(",pool=", s.ActivePool).int(",decay=", s.DecayPeriod).
		int(",tlbw=", s.TLBMissWeight)
	k = append(k, ",lru=["...)
	for i, d := range s.LRUDepthWeights {
		if i > 0 {
			k = append(k, ' ')
		}
		k = strconv.AppendInt(k, int64(d), 10)
	}
	return append(k, ']')
}

// TBC configures thread block compaction.
type TBC struct {
	Mode DivergenceMode

	// CPMBits is the width of the Common Page Matrix saturating counters
	// (1..3 in the paper's figure 22).
	CPMBits int
	// CPMFlushPeriod is how often the CPM is cleared (paper: 500 cycles).
	CPMFlushPeriod int
	// CPMHistory is the per-TLB-entry warp history length (paper: 2).
	CPMHistory int
}

// Key returns a canonical string covering every TBC field (see MMU.Key for
// the contract).
func (t TBC) Key() string { return string(t.appendKey(nil)) }

func (t TBC) appendKey(k key) key {
	return k.uint("tbc:mode=", uint64(t.Mode)).int(",cpm=", t.CPMBits).
		int(",flush=", t.CPMFlushPeriod).int(",hist=", t.CPMHistory)
}

// Hardware is the full machine configuration.
type Hardware struct {
	NumCores     int // shader cores (paper: 30)
	WarpsPerCore int // concurrent warps per core (paper: 48)
	WarpWidth    int // threads per warp (paper: 32)
	IssueWidth   int // SIMD pipeline width in lanes (paper: 8); a 32-thread
	// warp instruction occupies the issue stage for WarpWidth/IssueWidth
	// cycles, capping per-core issue throughput the way GPGPU-Sim does

	// L1 data cache (virtually indexed, physically tagged).
	L1Bytes    int // paper: 32 KB
	L1LineSize int // paper: 128 B
	L1Assoc    int
	L1Latency  int // hit latency in cycles
	L1MSHRs    int // outstanding L1 misses per core (flow control)

	// Shared L2, sliced across memory partitions.
	NumPartitions  int // paper: 8 channels
	L2BytesPerPart int // paper: 128 KB
	L2Assoc        int
	L2Latency      int
	ICNTLatency    int // interconnect one-way latency
	DRAMLatency    int
	DRAMBusy       int // channel occupancy per access (bandwidth model)

	PageShift uint // 12 for 4 KB pages, 21 for 2 MB pages

	MMU   MMU
	Sched Scheduler
	TBC   TBC
}

// Key returns a canonical identity string for the whole machine: every
// field of Hardware and its sub-structs contributes, field by field, so two
// configurations share a key exactly when they would simulate identically.
// The experiment pipeline dedupes and caches runs by this key; unlike the
// fmt %+v formatting it replaced, it cannot silently alias configs when
// fields are added or reordered (a reflection test enumerates the struct
// and fails if a new field does not change the key).
func (h Hardware) Key() string {
	k := make(key, 0, 384).int("hw:cores=", h.NumCores).int(",wpc=", h.WarpsPerCore).
		int(",ww=", h.WarpWidth).int(",iw=", h.IssueWidth).
		int(",l1=", h.L1Bytes).int("/", h.L1LineSize).int("/", h.L1Assoc).int("/", h.L1Latency).int("/", h.L1MSHRs).
		int(",parts=", h.NumPartitions).int(",l2=", h.L2BytesPerPart).int("/", h.L2Assoc).int("/", h.L2Latency).
		int(",icnt=", h.ICNTLatency).int(",dram=", h.DRAMLatency).int("/", h.DRAMBusy).
		uint(",pshift=", uint64(h.PageShift))
	k = h.MMU.appendKey(append(k, '|'))
	k = h.Sched.appendKey(append(k, '|'))
	return string(h.TBC.appendKey(append(k, '|')))
}

// IssuePeriod returns the cycles one warp instruction occupies the issue
// stage: WarpWidth lanes drained through an IssueWidth-wide pipeline.
func (h *Hardware) IssuePeriod() int {
	p := h.WarpWidth / h.IssueWidth
	if p < 1 {
		p = 1
	}
	return p
}

// FieldError reports one invalid configuration field by its dotted path
// (e.g. "MMU.Entries"), so callers can point at the exact knob instead of
// parsing a message. Validate returns a *FieldError for every failure;
// retrieve it with errors.As.
type FieldError struct {
	Field string // dotted field path within Hardware
	Value any    // the rejected value
	Msg   string // what a valid value looks like
}

// Error implements error.
func (e *FieldError) Error() string {
	return fmt.Sprintf("config: %s = %v: %s", e.Field, e.Value, e.Msg)
}

// badField builds the standard validation failure.
func badField(field string, value any, msg string) error {
	return &FieldError{Field: field, Value: value, Msg: msg}
}

// ccwsFamily reports whether the policy keeps CCWS locality state.
func (p SchedulerPolicy) ccwsFamily() bool {
	return p == SchedCCWS || p == SchedTACCWS || p == SchedTCWS
}

// Validate reports configuration errors early, before any simulator state is
// built. Every failure is a *FieldError naming the offending field.
func (h *Hardware) Validate() error {
	switch {
	case h.NumCores < 1:
		return badField("NumCores", h.NumCores, "must be >= 1")
	case h.WarpsPerCore < 1:
		return badField("WarpsPerCore", h.WarpsPerCore, "must be >= 1")
	case h.WarpWidth < 1 || h.WarpWidth > 64:
		return badField("WarpWidth", h.WarpWidth, "must be in 1..64")
	case h.IssueWidth < 1:
		return badField("IssueWidth", h.IssueWidth, "must be >= 1")
	case h.L1LineSize < 1 || h.L1LineSize&(h.L1LineSize-1) != 0:
		return badField("L1LineSize", h.L1LineSize, "must be a power of two")
	case h.L1Assoc < 1:
		return badField("L1Assoc", h.L1Assoc, "must be >= 1")
	case h.L1Bytes%(h.L1LineSize*h.L1Assoc) != 0:
		return badField("L1Bytes", h.L1Bytes, fmt.Sprintf("must be a multiple of L1LineSize*L1Assoc (%d)", h.L1LineSize*h.L1Assoc))
	case h.NumPartitions < 1:
		return badField("NumPartitions", h.NumPartitions, "must be >= 1")
	case h.L2Assoc < 1:
		return badField("L2Assoc", h.L2Assoc, "must be >= 1")
	case h.L2BytesPerPart%(h.L1LineSize*h.L2Assoc) != 0:
		return badField("L2BytesPerPart", h.L2BytesPerPart, fmt.Sprintf("must be a multiple of L1LineSize*L2Assoc (%d)", h.L1LineSize*h.L2Assoc))
	case h.ICNTLatency < 0:
		return badField("ICNTLatency", h.ICNTLatency, "must be >= 0")
	case h.DRAMLatency < 0:
		return badField("DRAMLatency", h.DRAMLatency, "must be >= 0")
	case h.DRAMBusy < 1:
		return badField("DRAMBusy", h.DRAMBusy, "must be >= 1 (channel occupancy per access)")
	case h.PageShift != 12 && h.PageShift != 21:
		return badField("PageShift", h.PageShift, "must be 12 (4 KB) or 21 (2 MB)")
	}
	if h.MMU.Enabled {
		m := &h.MMU
		switch {
		case m.Assoc < 1:
			return badField("MMU.Assoc", m.Assoc, "must be >= 1 when the MMU is enabled")
		case m.Entries < m.Assoc || m.Entries%m.Assoc != 0:
			return badField("MMU.Entries", m.Entries, fmt.Sprintf("must be a positive multiple of MMU.Assoc (%d)", m.Assoc))
		case m.Ports < 1:
			return badField("MMU.Ports", m.Ports, "must be >= 1")
		case m.NumPTWs < 1:
			return badField("MMU.NumPTWs", m.NumPTWs, "must be >= 1")
		case m.MSHRs < 1:
			return badField("MMU.MSHRs", m.MSHRs, "must be >= 1")
		case m.SharedTLBEntries < 0:
			return badField("MMU.SharedTLBEntries", m.SharedTLBEntries, "must be >= 0 (0 disables the shared tier)")
		case m.PWCEntries < 0:
			return badField("MMU.PWCEntries", m.PWCEntries, "must be >= 0 (0 disables the page walk cache)")
		case m.SoftwareWalks && m.SoftwareWalkOverhead < 0:
			return badField("MMU.SoftwareWalkOverhead", m.SoftwareWalkOverhead, "must be >= 0")
		}
	}
	s := &h.Sched
	if s.Policy > SchedTCWS {
		return badField("Sched.Policy", s.Policy, "unknown scheduler policy")
	}
	if s.Policy.ccwsFamily() {
		switch {
		case s.VTAEntriesPerWarp < 1:
			return badField("Sched.VTAEntriesPerWarp", s.VTAEntriesPerWarp, "must be >= 1 for CCWS-family schedulers")
		case s.VTAAssoc < 1:
			// Entries below the associativity are legal: the VTA clamps its
			// geometry (paper sweeps 2..16 entries against 8-way arrays).
			return badField("Sched.VTAAssoc", s.VTAAssoc, "must be >= 1 for CCWS-family schedulers")
		case s.ActivePool < 1:
			return badField("Sched.ActivePool", s.ActivePool, "must be >= 1 for CCWS-family schedulers")
		case s.DecayPeriod < 0:
			return badField("Sched.DecayPeriod", s.DecayPeriod, "must be >= 0 (0 disables decay)")
		case s.TLBMissWeight < 1:
			return badField("Sched.TLBMissWeight", s.TLBMissWeight, "must be >= 1 (1 disables TLB-aware weighting)")
		}
	}
	t := &h.TBC
	if t.Mode > DivTLBTBC {
		return badField("TBC.Mode", t.Mode, "unknown divergence mode")
	}
	if t.Mode == DivTLBTBC {
		switch {
		case t.CPMBits < 1 || t.CPMBits > 8:
			return badField("TBC.CPMBits", t.CPMBits, "must be in 1..8 for TLB-aware TBC")
		case t.CPMFlushPeriod < 1:
			return badField("TBC.CPMFlushPeriod", t.CPMFlushPeriod, "must be >= 1 for TLB-aware TBC")
		case t.CPMHistory < 1:
			return badField("TBC.CPMHistory", t.CPMHistory, "must be >= 1 for TLB-aware TBC")
		}
	}
	return nil
}

// Baseline returns the paper's section 5.2 machine: 30 SIMT cores, 32-thread
// warps, issue width 8, 32 KB L1 with 128 B lines, 8 memory partitions with
// 128 KB L2 each — with no TLB (the baseline every speedup is normalised to).
func Baseline() Hardware {
	return Hardware{
		NumCores:     30,
		WarpsPerCore: 48,
		WarpWidth:    32,
		IssueWidth:   8,

		L1Bytes:    32 << 10,
		L1LineSize: 128,
		L1Assoc:    8,
		L1Latency:  1,
		L1MSHRs:    32,

		NumPartitions:  8,
		L2BytesPerPart: 128 << 10,
		L2Assoc:        8,
		L2Latency:      20,
		ICNTLatency:    10,
		DRAMLatency:    200,
		DRAMBusy:       8,

		PageShift: 12,

		MMU: MMU{Enabled: false},
		Sched: Scheduler{
			Policy:            SchedLRR,
			VTAEntriesPerWarp: 16,
			VTAAssoc:          8,
			LLSCutoff:         64,
			ActivePool:        8,
			DecayPeriod:       4096,
			TLBMissWeight:     1,
		},
		TBC: TBC{
			Mode:           DivStack,
			CPMBits:        3,
			CPMFlushPeriod: 500,
			CPMHistory:     2,
		},
	}
}

// NaiveMMU is the strawman CPU-style design of section 6.2: 128-entry,
// 4-way TLB with one walker, fully blocking, no walk scheduling. ports is
// 3 in figure 2 and 4 thereafter.
func NaiveMMU(ports int) MMU {
	return MMU{
		Enabled:         true,
		Entries:         128,
		Assoc:           4,
		Ports:           ports,
		NumPTWs:         1,
		MSHRs:           32,
		WalkConcurrency: 4,
	}
}

// AugmentedMMU is the paper's recommended design: naive 128-entry 4-port
// TLB plus hits-under-miss, cache overlap, and PTW scheduling, still with
// a single walker (end of section 6.3).
func AugmentedMMU() MMU {
	m := NaiveMMU(4)
	m.HitsUnderMiss = true
	m.CacheOverlap = true
	m.PTWSched = true
	return m
}

// SmallTest returns a scaled-down machine for fast unit tests: 4 cores,
// 8 warps each, small caches. Policy knobs mirror Baseline.
func SmallTest() Hardware {
	h := Baseline()
	h.NumCores = 4
	h.WarpsPerCore = 8
	h.L1Bytes = 8 << 10
	h.L2BytesPerPart = 32 << 10
	h.NumPartitions = 2
	return h
}
