// Package stats collects the counters, latency accumulators, and histograms
// that every experiment in the reproduction reports. A single Stats value is
// threaded through a simulation; reporters in cmd/experiments turn it into
// the rows of the paper's figures.
package stats

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Counter is a simple monotonically increasing event count.
type Counter uint64

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { *c++ }

// Value returns the current count.
func (c Counter) Value() uint64 { return uint64(c) }

// Merge folds another counter into c.
func (c *Counter) Merge(o Counter) { *c += o }

// LatencyAccum accumulates per-event latencies so averages can be reported.
type LatencyAccum struct {
	Events uint64
	Total  uint64
	Max    uint64
}

// Observe records one event with the given latency in cycles.
func (l *LatencyAccum) Observe(cycles uint64) {
	l.Events++
	l.Total += cycles
	if cycles > l.Max {
		l.Max = cycles
	}
}

// Merge folds another accumulator into l. Events, Total, and Max are each
// commutative aggregates, so merging per-core shards in any order yields the
// same value a single shared accumulator would have held.
func (l *LatencyAccum) Merge(o LatencyAccum) {
	l.Events += o.Events
	l.Total += o.Total
	if o.Max > l.Max {
		l.Max = o.Max
	}
}

// Mean returns the average latency, or 0 when no events were observed.
func (l *LatencyAccum) Mean() float64 {
	if l.Events == 0 {
		return 0
	}
	return float64(l.Total) / float64(l.Events)
}

// Hist is a dense histogram over small non-negative integers (e.g. page
// divergence per warp, which is at most the warp width).
type Hist struct {
	buckets []uint64
	count   uint64
	sum     uint64
	max     int
}

// Observe records one sample of value v (v >= 0).
func (h *Hist) Observe(v int) {
	if v < 0 {
		panic("stats: negative histogram sample")
	}
	for v >= len(h.buckets) {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[v]++
	h.count++
	h.sum += uint64(v)
	if v > h.max {
		h.max = v
	}
}

// Clone returns an independent deep copy of the histogram.
func (h *Hist) Clone() Hist {
	c := *h
	c.buckets = append([]uint64(nil), h.buckets...)
	return c
}

// Merge folds another histogram into h bucket-wise. The merged bucket slice
// grows to the longer of the two, i.e. exactly max-observed-value+1 — the same
// length a single shared histogram would have (Observe grows on demand and
// never pads), so marshalled golden snapshots stay byte-identical after a
// shard merge.
func (h *Hist) Merge(o *Hist) {
	for len(h.buckets) < len(o.buckets) {
		h.buckets = append(h.buckets, 0)
	}
	for v, n := range o.buckets {
		h.buckets[v] += n
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of samples observed.
func (h *Hist) Count() uint64 { return h.count }

// Mean returns the average sample, or 0 when empty.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest sample observed, or 0 when empty.
func (h *Hist) Max() int { return h.max }

// Bucket returns the number of samples equal to v.
func (h *Hist) Bucket(v int) uint64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// histJSON is the wire form of a Hist: every internal field is exported so
// a marshalled histogram pins the complete distribution, not just summary
// moments. The golden-snapshot tests in internal/gpu rely on this to detect
// any behavioural drift a hot-path rewrite might introduce.
type histJSON struct {
	Buckets []uint64 `json:"buckets"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     int      `json:"max"`
}

// MarshalJSON encodes the full histogram state.
func (h Hist) MarshalJSON() ([]byte, error) {
	return json.Marshal(histJSON{Buckets: h.buckets, Count: h.count, Sum: h.sum, Max: h.max})
}

// UnmarshalJSON restores histogram state written by MarshalJSON.
func (h *Hist) UnmarshalJSON(data []byte) error {
	var w histJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	h.buckets = w.Buckets
	h.count = w.Count
	h.sum = w.Sum
	h.max = w.Max
	return nil
}

// Percentile returns the smallest value v such that at least p (0..1) of
// samples are <= v. Empty histograms report 0.
func (h *Hist) Percentile(p float64) int {
	if h.count == 0 {
		return 0
	}
	exact := p * float64(h.count)
	need := uint64(exact)
	if float64(need) < exact {
		need++ // ceiling: "at least p of samples"
	}
	if need == 0 {
		need = 1
	}
	var seen uint64
	for v, n := range h.buckets {
		seen += n
		if seen >= need {
			return v
		}
	}
	return h.max
}

// Sim aggregates every statistic one simulation produces. Fields are grouped
// by the subsystem that writes them.
type Sim struct {
	// Core execution.
	Cycles       uint64 // total cycles until all thread blocks drained
	Instructions Counter
	MemInstrs    Counter // warp-level memory instructions issued
	// IdleCycles counts the cycles each core spent live (holding a thread
	// block) outside an issue period: a core is busy for IssuePeriod cycles
	// from each instruction it issues and idle for every other live cycle.
	// Each core charges its own timeline, at its next issue; an aborted
	// run charges nothing after a core's last issue.
	IdleCycles Counter
	CoreCycles uint64 // live cycles summed over every core (for idle fraction)

	// Warp-level memory behaviour.
	PageDivergence Hist // distinct 4 KB (or 2 MB) translations per warp mem op
	LineDivergence Hist // distinct cache lines per warp mem op

	// ActiveLanes records the active lanes of each issued warp
	// instruction, so its count equals Instructions; its mean over the warp
	// width is SIMD utilisation (what TBC improves). An attempt the
	// blocking MMU's memory gate refuses issues nothing and records
	// nothing.
	ActiveLanes Hist

	// TLB.
	TLBAccesses Counter // one per distinct translation looked up
	TLBHits     Counter
	TLBMisses   Counter
	TLBHitUnder Counter // hits serviced while a miss was outstanding
	TLBMissLat  LatencyAccum

	// L1 data cache.
	L1Accesses Counter
	L1Hits     Counter
	L1Misses   Counter
	L1MissLat  LatencyAccum

	// L2.
	L2Accesses Counter
	L2Hits     Counter
	L2Misses   Counter

	// Page table walker.
	Walks             Counter // completed page table walks
	WalkRefs          Counter // memory references issued by walkers
	WalkRefsCoalesced Counter // references eliminated by PTW scheduling
	WalkCacheHits     Counter // walk references that hit in the shared L2
	PWCHits           Counter // upper-level PTEs served by the page walk cache
	WalkLat           LatencyAccum

	// Shared second-tier TLB (extension; zero when not configured).
	SharedTLBAccesses Counter
	SharedTLBHits     Counter
	SharedTLBMisses   Counter

	// Scheduler-specific.
	VTAHits        Counter // victim-tag-array hits (CCWS family)
	SchedThrottles Counter // cycles the scheduling pool was restricted
	CompactedWarps Counter // dynamic warps formed by TBC
	CPMRejects     Counter // compaction candidates deferred by the CPM
}

// Merge folds another Sim into s field by field. Every field is either a
// plain sum (uint64, Counter) or a commutative aggregate (LatencyAccum,
// Hist), so merging the per-core shards a parallel run accumulates — in any
// order — reproduces exactly the values a single shared Sim would have held
// under serial ticking. GPU.Run merges core shards into the global sink once
// at the end of a run.
func (s *Sim) Merge(o *Sim) {
	s.Cycles += o.Cycles
	s.Instructions.Merge(o.Instructions)
	s.MemInstrs.Merge(o.MemInstrs)
	s.IdleCycles.Merge(o.IdleCycles)
	s.CoreCycles += o.CoreCycles

	s.PageDivergence.Merge(&o.PageDivergence)
	s.LineDivergence.Merge(&o.LineDivergence)
	s.ActiveLanes.Merge(&o.ActiveLanes)

	s.TLBAccesses.Merge(o.TLBAccesses)
	s.TLBHits.Merge(o.TLBHits)
	s.TLBMisses.Merge(o.TLBMisses)
	s.TLBHitUnder.Merge(o.TLBHitUnder)
	s.TLBMissLat.Merge(o.TLBMissLat)

	s.L1Accesses.Merge(o.L1Accesses)
	s.L1Hits.Merge(o.L1Hits)
	s.L1Misses.Merge(o.L1Misses)
	s.L1MissLat.Merge(o.L1MissLat)

	s.L2Accesses.Merge(o.L2Accesses)
	s.L2Hits.Merge(o.L2Hits)
	s.L2Misses.Merge(o.L2Misses)

	s.Walks.Merge(o.Walks)
	s.WalkRefs.Merge(o.WalkRefs)
	s.WalkRefsCoalesced.Merge(o.WalkRefsCoalesced)
	s.WalkCacheHits.Merge(o.WalkCacheHits)
	s.PWCHits.Merge(o.PWCHits)
	s.WalkLat.Merge(o.WalkLat)

	s.SharedTLBAccesses.Merge(o.SharedTLBAccesses)
	s.SharedTLBHits.Merge(o.SharedTLBHits)
	s.SharedTLBMisses.Merge(o.SharedTLBMisses)

	s.VTAHits.Merge(o.VTAHits)
	s.SchedThrottles.Merge(o.SchedThrottles)
	s.CompactedWarps.Merge(o.CompactedWarps)
	s.CPMRejects.Merge(o.CPMRejects)
}

// Clone returns an independent deep copy of the statistics. The experiment
// pipeline finalises each completed simulation by handing renderers clones,
// so a renderer can never mutate the shared result another figure (or a
// concurrent worker) is reading — the executor's store stays effectively
// read-only after a run completes.
func (s *Sim) Clone() *Sim {
	c := *s
	c.PageDivergence = s.PageDivergence.Clone()
	c.LineDivergence = s.LineDivergence.Clone()
	c.ActiveLanes = s.ActiveLanes.Clone()
	return &c
}

// TLBMissRate returns misses / accesses (0 when no accesses).
func (s *Sim) TLBMissRate() float64 {
	if s.TLBAccesses == 0 {
		return 0
	}
	return float64(s.TLBMisses) / float64(s.TLBAccesses)
}

// L1MissRate returns misses / accesses (0 when no accesses).
func (s *Sim) L1MissRate() float64 {
	if s.L1Accesses == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(s.L1Accesses)
}

// L2MissRate returns misses / accesses (0 when no accesses).
func (s *Sim) L2MissRate() float64 {
	if s.L2Accesses == 0 {
		return 0
	}
	return float64(s.L2Misses) / float64(s.L2Accesses)
}

// MemFraction returns memory instructions as a fraction of all instructions.
func (s *Sim) MemFraction() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.MemInstrs) / float64(s.Instructions)
}

// IdleFraction returns the fraction of core-cycles with no issue.
func (s *Sim) IdleFraction() float64 {
	if s.CoreCycles == 0 {
		return 0
	}
	return float64(s.IdleCycles) / float64(s.CoreCycles)
}

// SIMDUtilisation returns mean active lanes divided by width.
func (s *Sim) SIMDUtilisation(width int) float64 {
	if width <= 0 {
		return 0
	}
	return s.ActiveLanes.Mean() / float64(width)
}

// WalkRefsEliminated returns the fraction of walker references removed by
// PTW scheduling (paper reports 10-20%).
func (s *Sim) WalkRefsEliminated() float64 {
	total := uint64(s.WalkRefs) + uint64(s.WalkRefsCoalesced)
	if total == 0 {
		return 0
	}
	return float64(s.WalkRefsCoalesced) / float64(total)
}

// String renders a compact human-readable summary.
func (s *Sim) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d instrs=%d mem=%.1f%% idle=%.1f%%\n",
		s.Cycles, s.Instructions, 100*s.MemFraction(), 100*s.IdleFraction())
	fmt.Fprintf(&b, "tlb: acc=%d missrate=%.1f%% misslat=%.0f  l1: acc=%d missrate=%.1f%% misslat=%.0f\n",
		s.TLBAccesses, 100*s.TLBMissRate(), s.TLBMissLat.Mean(),
		s.L1Accesses, 100*s.L1MissRate(), s.L1MissLat.Mean())
	fmt.Fprintf(&b, "pagediv: avg=%.2f max=%d  walks=%d refs=%d elim=%.1f%% walk$hit=%d\n",
		s.PageDivergence.Mean(), s.PageDivergence.Max(),
		s.Walks, s.WalkRefs, 100*s.WalkRefsEliminated(), s.WalkCacheHits)
	return b.String()
}

// Table is a minimal fixed-width text table used by the experiment harness
// to print figure rows the way the paper's plots are organised.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// SortByColumn orders rows by the given column's string value.
func (t *Table) SortByColumn(col int) {
	sort.SliceStable(t.rows, func(i, j int) bool { return t.rows[i][col] < t.rows[j][col] })
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < width[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
