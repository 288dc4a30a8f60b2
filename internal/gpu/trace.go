package gpu

import (
	"fmt"

	"gpummu/internal/engine"
)

// EventKind classifies a trace event.
type EventKind uint8

// Trace event kinds.
const (
	EvIssue    EventKind = iota // warp issued an instruction
	EvTLBMiss                   // a page request missed the TLB
	EvWalkDone                  // a page table walk completed
	EvBarrier                   // a warp arrived at a barrier
	EvCompact                   // TBC formed a dynamic warp
	EvBlockEnd                  // a thread block retired
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvIssue:
		return "issue"
	case EvTLBMiss:
		return "tlbmiss"
	case EvWalkDone:
		return "walkdone"
	case EvBarrier:
		return "barrier"
	case EvCompact:
		return "compact"
	case EvBlockEnd:
		return "blockend"
	}
	return fmt.Sprintf("ev(%d)", k)
}

// Event is one trace record. Meaning of A/B depends on the kind:
//
//	issue:    A = pc, B = active lanes
//	tlbmiss:  A = vpn, B = walk completion cycle
//	walkdone: A = vpn, B = latency
//	barrier:  A = pc, B = arrivals so far
//	compact:  A = entry rpc, B = lanes in the new warp
//	blockend: A = block id, B = cycles since launch
type Event struct {
	Cycle engine.Cycle
	Kind  EventKind
	Core  int16
	Block int32
	Warp  int16 // scheduler slot; -1 when not applicable
	A, B  uint64
}

// SetTracer attaches a Chrome tracer to the GPU (nil detaches). Tracing
// costs a few percent of simulation speed; attach only when inspecting
// runs.
func (g *GPU) SetTracer(t *ChromeTracer) { g.tracer = t }

// emit sends an event if a tracer is attached.
func (g *GPU) emit(e Event) {
	if g.tracer != nil {
		g.tracer.Trace(e)
	}
}
