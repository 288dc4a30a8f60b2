package gpu

import (
	"fmt"
	"io"

	"gpummu/internal/mem"
	"gpummu/internal/obs"
)

// ChromeTracer renders simulator events as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing. Each core gets two tracks: an
// execution track (issues, barriers, compaction, block retirement) and a
// walker track (TLB misses rendered as walk spans). Counter tracks (IPC,
// TLB miss rate, occupancy, per-L2-slice traffic) are appended at every
// sampler boundary when a Sampler is attached.
//
// Events reach the tracer in core-id order within each step's tick pass,
// and obs.TraceWriter writes fixed-order fields, so the bytes are a pure
// function of the simulation — the property the trace golden tests pin.
type ChromeTracer struct {
	tw     *obs.TraceWriter
	prev   obs.Sample
	slices []mem.SliceStat // previous per-slice snapshot for counter deltas
}

// Track layout: tid 0 carries the counter tracks, then each core owns a
// pair of thread tracks.
func coreTID(core int16) int   { return 2*int(core) + 1 }
func walkerTID(core int16) int { return 2*int(core) + 2 }

// NewChromeTracer starts a Chrome trace on w for a machine with cores
// shader cores, emitting the process/thread naming metadata upfront.
// Attach it with SetTracer and Close it after the run.
func NewChromeTracer(w io.Writer, cores int) *ChromeTracer {
	ct := &ChromeTracer{tw: obs.NewTraceWriter(w)}
	ct.tw.Meta(0, 0, "process_name", "gpummu")
	ct.tw.Meta(0, 0, "thread_name", "counters")
	for i := 0; i < cores; i++ {
		ct.tw.Meta(0, coreTID(int16(i)), "thread_name", fmt.Sprintf("core %d", i))
		ct.tw.Meta(0, walkerTID(int16(i)), "thread_name", fmt.Sprintf("core %d walkers", i))
	}
	return ct
}

// Trace renders one simulator event.
func (ct *ChromeTracer) Trace(e Event) {
	ts := uint64(e.Cycle)
	switch e.Kind {
	case EvIssue:
		ct.tw.Instant(0, coreTID(e.Core), ts, "issue",
			fmt.Sprintf(`"block":%d,"warp":%d,"pc":%d,"lanes":%d`, e.Block, e.Warp, e.A, e.B))
	case EvTLBMiss:
		// B is the walk completion cycle: render the whole outstanding walk
		// as a span on the core's walker track.
		dur := uint64(0)
		if e.B > ts {
			dur = e.B - ts
		}
		ct.tw.Complete(0, walkerTID(e.Core), ts, dur, "walk",
			fmt.Sprintf(`"block":%d,"warp":%d,"vpn":%d`, e.Block, e.Warp, e.A))
	case EvWalkDone:
		ct.tw.Instant(0, walkerTID(e.Core), ts, "walkdone",
			fmt.Sprintf(`"vpn":%d,"latency":%d`, e.A, e.B))
	case EvBarrier:
		ct.tw.Instant(0, coreTID(e.Core), ts, "barrier",
			fmt.Sprintf(`"block":%d,"warp":%d,"pc":%d,"arrived":%d`, e.Block, e.Warp, e.A, e.B))
	case EvCompact:
		ct.tw.Instant(0, coreTID(e.Core), ts, "compact",
			fmt.Sprintf(`"block":%d,"rpc":%d,"lanes":%d`, e.Block, e.A, e.B))
	case EvBlockEnd:
		ct.tw.Instant(0, coreTID(e.Core), ts, "blockend", fmt.Sprintf(`"block":%d`, e.A))
	default:
		ct.tw.Instant(0, coreTID(e.Core), ts, e.Kind.String(),
			fmt.Sprintf(`"a":%d,"b":%d`, e.A, e.B))
	}
}

// counterSample appends the counter tracks for one sampler row: rates from
// the row itself plus per-L2-slice traffic as deltas over the interval.
func (ct *ChromeTracer) counterSample(smp obs.Sample, slices []mem.SliceStat) {
	ts := smp.Cycle
	ct.tw.Counter(0, ts, "ipc", smp.IPCSince(ct.prev))
	ct.tw.Counter(0, ts, "tlb_missrate", smp.TLBMissRate())
	ct.tw.Counter(0, ts, "live_blocks", float64(smp.LiveBlocks))
	ct.tw.Counter(0, ts, "active_warps", float64(smp.ActiveWarps))
	ct.tw.Counter(0, ts, "walkers_busy", float64(smp.WalkersBusy))
	ct.tw.Counter(0, ts, "mshrs_used", float64(smp.MSHRsUsed))
	ct.tw.Counter(0, ts, "icnt_util", smp.IcntUtil)
	ct.tw.Counter(0, ts, "dram_util", smp.DRAMUtil)
	for i, s := range slices {
		var prev uint64
		if i < len(ct.slices) {
			prev = ct.slices[i].Accesses
		}
		ct.tw.Counter(0, ts, fmt.Sprintf("l2.slice%d", i), float64(s.Accesses-prev))
	}
	ct.slices = append(ct.slices[:0], slices...)
	ct.prev = smp
}

// Err reports the first underlying write error, if any.
func (ct *ChromeTracer) Err() error { return ct.tw.Err() }

// Close terminates the trace JSON and flushes it. Idempotent.
func (ct *ChromeTracer) Close() error { return ct.tw.Close() }
