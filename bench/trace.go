package main

import (
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpummu/internal/obs"
)

// span is one timed call into the program, recorded by the benchmark
// around the layer boundary it crosses.
type span struct {
	ID, Parent int // Parent 0 is a root
	Name       string
	Req        string // the run or job the span belongs to
	Start, End time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when t is nil).
func (t *tracer) begin(parent int, name, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// closed returns a copy of every span that has ended.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children. Children may overlap one another
// (parallel workers under one parent), so their union is subtracted.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeChromeTrace writes spans as Chrome trace-event JSON, one track per
// request, timestamps in microseconds since the run began.
func writeChromeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw := obs.NewTraceWriter(f)
	tids := map[string]int{}
	for _, s := range spans {
		tid, ok := tids[s.Req]
		if !ok {
			tid = len(tids) + 1
			tids[s.Req] = tid
			tw.Meta(1, tid, "thread_name", s.Req)
		}
		args := fmt.Sprintf(`"id":%d,"parent":%d,"req":%q`, s.ID, s.Parent, s.Req)
		tw.Complete(1, tid, uint64(s.Start.Microseconds()), uint64((s.End - s.Start).Microseconds()), s.Name, args)
	}
	if err := tw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers maps the simulator's import paths to the layer names used by the
// cpu_share.* metrics. Packages not listed count as "other".
var layers = map[string]string{
	"gpummu/internal/workloads":   "workloads",
	"gpummu/internal/kernels":     "workloads",
	"gpummu/internal/vm":          "vm",
	"gpummu/internal/gpu":         "gpu",
	"gpummu/internal/core":        "core",
	"gpummu/internal/mem":         "mem",
	"gpummu/internal/engine":      "engine",
	"gpummu/internal/stats":       "stats",
	"gpummu/internal/obs":         "stats",
	"gpummu/internal/experiments": "experiments",
	"gpummu/internal/campaign":    "experiments",
	"gpummu/internal/snapshot":    "experiments",
	"gpummu/internal/service":     "service",
}

// cpuLayers lists every cpu_share.* layer, "other" last.
var cpuLayers = []string{"workloads", "vm", "gpu", "core", "mem", "engine", "stats", "runtime", "experiments", "service", "other"}

// layerOf maps a Go symbol name such as "gpummu/internal/gpu.(*Core).tick"
// to its layer.
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if l, ok := layers[pkg]; ok {
		return l
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// cpuShares returns each layer's share of the flat (self) CPU time in a
// runtime/pprof CPU profile, as `go tool pprof -top` attributes it to
// functions. The shares sum to 1 whenever the profile holds a sample.
func cpuShares(path string) (map[string]float64, error) {
	top, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ns", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	byLayer := map[string]float64{}
	var total float64
	// Rows read "flat flat% sum% cum cum% function", flat in nanoseconds.
	for _, line := range strings.Split(string(top), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			continue // not a function row
		}
		byLayer[layerOf(f[5])] += ns
		total += ns
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l] = ratio(byLayer[l], total)
	}
	return out, nil
}
