package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want       float64
		p, v       float64
		wantBeyond int
	}{
		{n: 1000, want: 0.99, p: 0.99, v: 990, wantBeyond: 10},
		{n: 100, want: 0.99, p: 0.90, v: 90, wantBeyond: 10},
		{n: 50, want: 0.95, p: 0.80, v: 40, wantBeyond: 10},
		{n: 300, want: 0.95, p: 0.95, v: 285, wantBeyond: 15},
		{n: 15, want: 0.99, p: 0.5, v: 8},
	} {
		v, p, n := tail(seq(tc.n), tc.want)
		if v != tc.v || p != tc.p || n != tc.n {
			t.Errorf("tail(n=%d, %.2f) = %v at p%.0f (n=%d), want %v at p%.0f", tc.n, tc.want, v, 100*p, n, tc.v, 100*tc.p)
		}
		if tc.wantBeyond > 0 && tc.n-int(v) != tc.wantBeyond {
			t.Errorf("n=%d: %d samples beyond, want %d", tc.n, tc.n-int(v), tc.wantBeyond)
		}
	}
	if v, _, n := tail(nil, 0.99); v != 0 || n != 0 {
		t.Errorf("empty tail = %v, n=%d", v, n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 2}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	step := 10 * time.Second
	rates := []float64{loRate, hiRate}
	u, nCamp := universe(7, 0)
	n := len(u)
	encode := func(seed uint64) []byte {
		b, err := json.Marshal(schedule(seed, step, rates, nCamp, n))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := encode(7)
	time.Sleep(5 * time.Millisecond)
	if b := encode(7); !bytes.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if bytes.Equal(a, encode(8)) {
		t.Fatal("different seeds gave the same schedule")
	}

	arr := schedule(7, step, rates, nCamp, n)
	count := make([]int, len(rates))
	camps := 0
	for i, x := range arr {
		if x.Spec < 0 || x.Spec >= n {
			t.Fatalf("arrival %d picks spec %d outside the universe of %d", i, x.Spec, n)
		}
		if x.Spec < nCamp {
			camps++
		}
		if i > 0 && x.At < arr[i-1].At {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if lo := time.Duration(x.Step) * step; x.At < lo || x.At >= lo+step {
			t.Fatalf("arrival %d at %v lies outside step %d", i, x.At, x.Step)
		}
		count[x.Step]++
	}
	for s, rate := range rates {
		want := rate * step.Seconds()
		if math.Abs(float64(count[s])-want) > 5*math.Sqrt(want) {
			t.Errorf("step %d: %d arrivals, want about %.0f", s, count[s], want)
		}
	}

	if want := campaignShare * float64(len(arr)); math.Abs(float64(camps)-want) > 5*math.Sqrt(want) {
		t.Errorf("%d campaign jobs of %d, want about %.0f", camps, len(arr), want)
	}

	// The steps draw from disjoint dataset seeds, so both start cold.
	seen := map[uint64]bool{}
	for _, sp := range u {
		seen[sp.Seed] = true
	}
	u1, _ := universe(7, 1)
	for _, sp := range u1 {
		if seen[sp.Seed] {
			t.Fatalf("dataset seed %d is in both steps' universes", sp.Seed)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "campaign", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "execute", Start: ms(10), End: ms(90)},
		// Two workers overlap inside execute: their union is 10..70.
		{ID: 3, Parent: 2, Name: "run", Start: ms(10), End: ms(50)},
		{ID: 4, Parent: 2, Name: "run", Start: ms(30), End: ms(70)},
		// A child overrunning its parent is clipped to the parent.
		{ID: 5, Parent: 1, Name: "render", Start: ms(95), End: ms(120)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"campaign": ms(100 - 80 - 5),
		"execute":  ms(80 - 60),
		"run":      ms(40 + 40),
		"render":   ms(25),
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"gpummu/internal/gpu.(*Core).phaseCompute": "gpu",
		"gpummu/internal/gpu.countLanes":           "gpu",
		"gpummu/internal/vm.(*PhysMem).page":       "vm",
		"gpummu/internal/kernels.(*Builder).Emit":  "workloads",
		"runtime.mapaccess1_fast64":                "runtime",
		"internal/runtime/atomic.(*Uint32).Load":   "runtime",
		"net/http.(*conn).serve":                   "other",
		"main.simulate":                            "other",
		"":                                         "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readDeclared(t *testing.T) (e2e, layer []declared, workloads []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	return doc.EndToEnd, doc.PerLayer, workloads
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestDeclaredMetricsMatchBENCHMARKJSON(t *testing.T) {
	e2e, layer, wls := readDeclared(t)
	check := func(kind string, code []metric, file []declared) {
		if len(code) != len(file) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(code), len(file))
		}
		byName := map[string]declared{}
		for _, d := range file {
			byName[d.Name] = d
		}
		for _, m := range code {
			if !nameRe.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", kind, m.Name)
			}
			d, ok := byName[m.Name]
			if !ok {
				t.Errorf("%s: %s is emitted but not declared", kind, m.Name)
				continue
			}
			if d.Unit != m.Unit || d.Better != m.Better {
				t.Errorf("%s: %s declared %s/%s, emitted %s/%s", kind, m.Name, d.Unit, d.Better, m.Unit, m.Better)
			}
			if kind == "end_to_end" && (d.Bound == nil || *d.Bound != m.Bound) {
				t.Errorf("%s: %s bound differs from the code's %v", kind, m.Name, m.Bound)
			}
			delete(byName, m.Name)
		}
		for name := range byName {
			t.Errorf("%s: %s is declared but never emitted", kind, name)
		}
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)

	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	if strings.Join(names, ",") != strings.Join(wls, ",") {
		t.Errorf("workloads in code %v, in BENCHMARK.json %v", names, wls)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metric{Name: "latency_ms", Better: "lower", Bound: 0.1}
	higher := metric{Name: "sim_cycles_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		m    metric
		a, b []float64
		want string
	}{
		{lower, base, base, "no worse"},
		{lower, base, scale(base, 1.05), "no worse"},
		{lower, base, scale(base, 1.2), "worse"},
		{lower, base, scale(base, 0.8), "improved"},
		{higher, base, scale(base, 1.2), "improved"},
		{higher, base, scale(base, 0.8), "worse"},
		// Five pairs are too few to claim a gain.
		{lower, base[:5], scale(base[:5], 0.8), "no worse"},
		{lower, []float64{50, 150, 100, 60, 140}, []float64{55, 145, 100, 65, 135}, "unresolved"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %q, want %q", tc.m.Better, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareRefusesOtherHostsAndVersions(t *testing.T) {
	mk := func(cpus int, version string) *document {
		return &document{Schema: benchVersion, Workload: "campaign-tiny", Seed: 1,
			Stamp:   stamp{BenchVersion: version, HostCPUs: cpus, CPUModel: "m"},
			Metrics: map[string]value{"latency_ms": {Value: 1, Unit: "ms"}}}
	}
	var out bytes.Buffer
	if code := compareDocs([]*document{mk(2, benchVersion)}, []*document{mk(4, benchVersion)}, &out); code != 2 {
		t.Errorf("different hosts: exit %d, want 2\n%s", code, out.String())
	}
	if code := compareDocs([]*document{mk(2, benchVersion)}, []*document{mk(2, "other")}, &out); code != 2 {
		t.Errorf("different versions: exit %d, want 2\n%s", code, out.String())
	}
	a, b := mk(2, benchVersion), mk(2, benchVersion)
	a.Digests = map[string]string{"bfs@1001": "x"}
	b.Digests = map[string]string{"bfs@1001": "y"}
	out.Reset()
	if code := compareDocs([]*document{a}, []*document{b}, &out); code != 1 || !strings.Contains(out.String(), "DIGEST CHANGED") {
		t.Errorf("changed digest: exit %d, want 1 and a DIGEST CHANGED line\n%s", code, out.String())
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced,
// through the same path the command takes.
func TestSmoke(t *testing.T) {
	for _, w := range allWorkloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if w.name == "service-openloop" && testing.Short() {
				t.Skip("starts a gpusimd child; skipped under -short")
			}
			work := t.TempDir()
			traceDir := filepath.Join(work, "trace")
			doc, err := run(options{workload: w.name, seed: 3, trace: 1, smoke: true,
				root: "..", work: work, traceDir: traceDir})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range doc.Checks {
				if !c.OK {
					t.Errorf("check failed: %s: %s", c.Name, c.Detail)
				}
			}
			if !doc.Correct || doc.Failed != 0 || doc.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", doc.Correct, doc.Attempted, doc.Failed)
			}
			for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
				v, ok := doc.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("metric %s missing or without unit %q: %+v", m.Name, m.Unit, v)
				}
			}
			for _, m := range endToEnd {
				if doc.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, doc.Metrics[m.Name].Value)
				}
			}
			if s := doc.summary(); len(s.Metrics) != len(perLayer) {
				t.Errorf("traced summary holds %d metrics, want the %d per-layer ones", len(s.Metrics), len(perLayer))
			}
			var shares float64
			for _, l := range cpuLayers {
				shares += doc.Metrics["cpu_share."+l].Value
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("cpu shares sum to %v", shares)
			}

			b, err := os.ReadFile(filepath.Join(traceDir, "spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			var chrome struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &chrome); err != nil {
				t.Fatalf("spans.json is not valid JSON: %v", err)
			}
			complete := 0
			for _, ev := range chrome.TraceEvents {
				if ev.Ph == "X" {
					complete++
				}
			}
			if complete == 0 {
				t.Error("spans.json holds no spans")
			}
			for _, f := range []string{"cpu.pprof", "layers.json"} {
				if _, err := os.Stat(filepath.Join(traceDir, f)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
