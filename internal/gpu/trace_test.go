package gpu

import (
	"bytes"
	"encoding/json"
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

func TestTracerCapturesRun(t *testing.T) {
	cfg := config.SmallTest()
	cfg.MMU = config.AugmentedMMU()
	cfg.TBC.Mode = config.DivTBC
	w, err := workloads.Build("bfs", workloads.SizeTiny, cfg.PageShift, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.Sim{}
	g, err := New(cfg, w.AS, st)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ct := NewChromeTracer(&buf, cfg.NumCores)
	g.SetTracer(ct)
	if _, err := g.Run(w.Launch); err != nil {
		t.Fatal(err)
	}
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, e := range doc.TraceEvents {
		names[e.Name]++
	}
	// A TLB miss renders as a "walk" span on the core's walker track.
	for _, n := range []string{"issue", "walk", "compact"} {
		if names[n] == 0 {
			t.Errorf("no %s events traced", n)
		}
	}
}
