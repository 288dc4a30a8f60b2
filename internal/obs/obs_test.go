package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestNameCanonical(t *testing.T) {
	if got := Name("tlb.misses"); got != "tlb.misses" {
		t.Fatalf("bare name = %q", got)
	}
	got := Name("walker.walks", LabelInt("core", 3), LabelInt("walker", 1))
	if got != "walker.walks{core=3,walker=1}" {
		t.Fatalf("labelled name = %q", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Add(2)
	c.Inc()
	if r.Counter("a") != c || c.Value() != 3 {
		t.Fatalf("counter identity/value broken: %v", c)
	}
	g := r.Gauge("b")
	g.SetFloat(1.5)
	if m, ok := r.Lookup("b"); !ok || m.Float() != 1.5 {
		t.Fatalf("gauge lookup = %v %v", m, ok)
	}
	if _, ok := r.Lookup("missing"); ok {
		t.Fatal("lookup invented a metric")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("a")
}

// TestRegistryMergeExact pins the sharding contract: merging shard
// registries in any order reproduces exactly what one registry accumulating
// everything would hold.
func TestRegistryMergeExact(t *testing.T) {
	mk := func(vals map[string]uint64) *Registry {
		r := NewRegistry()
		// Insertion order must be deterministic for the text compare below.
		for _, k := range []string{"x", "y", "z"} {
			if v, ok := vals[k]; ok {
				r.Counter(k).Add(v)
			}
		}
		return r
	}
	a := mk(map[string]uint64{"x": 1, "y": 10})
	b := mk(map[string]uint64{"x": 2, "z": 5})
	direct := mk(map[string]uint64{"x": 3, "y": 10})
	direct.Counter("z").Add(5)

	a.Merge(b)
	var got, want strings.Builder
	if err := a.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	if err := direct.WriteText(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("merge not exact:\n%s--- want\n%s", got.String(), want.String())
	}
}

func TestRegistryExportDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.second").Add(2)
	r.Counter("a.first").Add(1)
	r.Gauge("c.third").SetFloat(0.5)
	var txt strings.Builder
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	want := "b.second counter 2\na.first counter 1\nc.third gauge 0.5\n"
	if txt.String() != want {
		t.Fatalf("text export:\n%q\nwant\n%q", txt.String(), want)
	}
	var js strings.Builder
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal([]byte(js.String()), &decoded); err != nil {
		t.Fatalf("JSON export invalid: %v", err)
	}
	if len(decoded) != 3 || decoded[0]["name"] != "b.second" {
		t.Fatalf("JSON export order/shape: %v", decoded)
	}
}

func TestSamplerRingAndDueCycles(t *testing.T) {
	s := NewSampler(100, 3)
	if s.NextAt() != 100 {
		t.Fatalf("initial nextAt = %d", s.NextAt())
	}
	for _, cyc := range []uint64{100, 200, 350, 400, 512} {
		s.Record(Sample{Cycle: cyc, Instructions: cyc * 2})
	}
	// Recording at 350 (a skipped boundary crossing) must schedule 400 next.
	if s.NextAt() != 600 {
		t.Fatalf("nextAt after 512 = %d", s.NextAt())
	}
	if s.Total() != 5 {
		t.Fatalf("total = %d", s.Total())
	}
	got := s.Samples()
	if len(got) != 3 || got[0].Cycle != 350 || got[2].Cycle != 512 {
		t.Fatalf("ring contents = %+v", got)
	}
	// A forced end-of-run sample at the same cycle replaces, not appends.
	s.Record(Sample{Cycle: 512, Instructions: 9999})
	if last, _ := s.Last(); last.Instructions != 9999 {
		t.Fatalf("same-cycle record did not replace: %+v", last)
	}
	if len(s.Samples()) != 3 {
		t.Fatal("same-cycle record grew the ring")
	}
	s.Reset()
	if len(s.Samples()) != 0 || s.NextAt() != 100 || s.Total() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestSamplerCSVAndJSON(t *testing.T) {
	s := NewSampler(10, 0)
	s.Record(Sample{Cycle: 10, Instructions: 40, TLBAccesses: 10, TLBMisses: 5})
	s.Record(Sample{Cycle: 20, Instructions: 60})
	var csv strings.Builder
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "cycle,instructions,") {
		t.Fatalf("header = %q", lines[0])
	}
	// Row 1: ipc = 40/10, missrate = 0.5. Row 2: ipc = 20/10.
	if !strings.HasPrefix(lines[1], "10,40,0,4.000000,10,0,5,0.500000,") {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "20,60,0,2.000000,") {
		t.Fatalf("row 2 = %q", lines[2])
	}
	var js strings.Builder
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var rows []Sample
	if err := json.Unmarshal([]byte(js.String()), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].Cycle != 20 {
		t.Fatalf("json rows = %+v", rows)
	}
}

func TestTraceWriterEmitsValidChromeJSON(t *testing.T) {
	var b strings.Builder
	tw := NewTraceWriter(&b)
	tw.Meta(0, 0, "process_name", "gpummu")
	tw.Meta(0, 2, "thread_name", `core "1"`) // quote-escaping path
	tw.Instant(0, 2, 42, "issue", `"pc":7,"lanes":32`)
	tw.Complete(0, 3, 100, 250, "walk", `"vpn":12345`)
	tw.Counter(0, 400, "ipc", 1.25)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("events = %d", len(doc.TraceEvents))
	}
	for i, e := range doc.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.Pid == nil || e.Tid == nil {
			t.Fatalf("event %d missing required fields: %+v", i, e)
		}
		if e.Ph != "M" && e.TS == nil {
			t.Fatalf("event %d (%s) missing ts", i, e.Ph)
		}
	}
	x := doc.TraceEvents[3]
	if x.Ph != "X" || x.Dur == nil || *x.Dur != 250 {
		t.Fatalf("complete event = %+v", x)
	}
}

func TestAbortErrorWrapsSentinels(t *testing.T) {
	err := error(&AbortError{Cause: ErrLivelock, Cycle: 9000, Msg: "window=4096", Dump: "core 0 ..."})
	if !errors.Is(err, ErrLivelock) {
		t.Fatal("errors.Is missed the sentinel")
	}
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Cycle != 9000 {
		t.Fatalf("errors.As = %v", ae)
	}
	msg := err.Error()
	for _, want := range []string{"livelock", "9000", "window=4096", "core 0"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("message %q missing %q", msg, want)
		}
	}
}
