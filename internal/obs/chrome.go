package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// TraceWriter emits Chrome trace-event JSON (the "JSON object format":
// {"traceEvents":[...]}) streamingly, loadable in Perfetto and
// chrome://tracing. Field order is fixed and no Go map is ever iterated, so
// the bytes produced for a given call sequence are always identical — the
// property the trace golden tests rely on.
//
// Timestamps are simulated cycles written as the ts microsecond field
// one-to-one (1 cycle renders as 1 µs), the convention cycle-accurate
// simulators use so trace viewers show cycle counts directly.
type TraceWriter struct {
	w     *bufio.Writer
	first bool
	done  bool
	err   error
}

// NewTraceWriter starts a trace on w. Call Close to finish the JSON.
func NewTraceWriter(w io.Writer) *TraceWriter {
	t := &TraceWriter{w: bufio.NewWriter(w), first: true}
	_, t.err = t.w.WriteString("{\"traceEvents\":[\n")
	return t
}

// sep writes the inter-event separator.
func (t *TraceWriter) sep() {
	if t.first {
		t.first = false
		return
	}
	_, t.err = t.w.WriteString(",\n")
}

// event writes one record. args must already be a JSON object body (without
// braces) or empty.
func (t *TraceWriter) event(ph string, pid, tid int, hasTS bool, ts, dur uint64, name, args string) {
	if t.err != nil || t.done {
		return
	}
	t.sep()
	if t.err != nil {
		return
	}
	b := make([]byte, 0, 96)
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"ph":"`...)
	b = append(b, ph...)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	if hasTS {
		b = append(b, `,"ts":`...)
		b = strconv.AppendUint(b, ts, 10)
	}
	if ph == "X" {
		b = append(b, `,"dur":`...)
		b = strconv.AppendUint(b, dur, 10)
	}
	if ph == "i" {
		b = append(b, `,"s":"t"`...)
	}
	if args != "" {
		b = append(b, `,"args":{`...)
		b = append(b, args...)
		b = append(b, '}')
	}
	b = append(b, '}')
	_, t.err = t.w.Write(b)
}

// Meta emits a metadata record (process_name / thread_name / …).
func (t *TraceWriter) Meta(pid, tid int, key, name string) {
	t.event("M", pid, tid, false, 0, 0, key, fmt.Sprintf(`"name":%q`, name))
}

// Instant emits a thread-scoped instant event at cycle ts.
func (t *TraceWriter) Instant(pid, tid int, ts uint64, name, args string) {
	t.event("i", pid, tid, true, ts, 0, name, args)
}

// Complete emits a complete ("X") duration event covering [ts, ts+dur).
func (t *TraceWriter) Complete(pid, tid int, ts, dur uint64, name, args string) {
	t.event("X", pid, tid, true, ts, dur, name, args)
}

// Counter emits a counter sample; viewers render one track per counter
// name, plotted over time.
func (t *TraceWriter) Counter(pid int, ts uint64, name string, value float64) {
	t.event("C", pid, 0, true, ts, 0, name, fmt.Sprintf(`"value":%g`, value))
}

// Err reports the first underlying write error, if any.
func (t *TraceWriter) Err() error { return t.err }

// Close terminates the JSON document and flushes. Further calls are no-ops.
func (t *TraceWriter) Close() error {
	if t.done {
		return t.err
	}
	t.done = true
	if t.err == nil {
		_, t.err = t.w.WriteString("\n]}\n")
	}
	if ferr := t.w.Flush(); t.err == nil {
		t.err = ferr
	}
	return t.err
}
