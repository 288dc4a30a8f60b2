// Command bench is the repository benchmark. It drives the simulator from
// outside: in-process calls to workload construction, the GPU model and
// the experiment pipeline, and a real gpusimd child process over /v1. One
// invocation runs one workload and prints one JSON document holding every
// metric with its unit, a host/commit stamp and the correctness checks;
// the last line of standard output is the compact summary
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"}}}
//
// Run it from the repository root (bench/run.sh builds it first):
//
//	bash bench/run.sh -workload exact-augmented -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload campaign-tiny -seed 1 -trace 1   # per-layer run
//	.bench_build/bench -compare A/ B/                             # verdicts
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// benchVersion changes whenever workloads or metric definitions change;
// -compare refuses to compare documents of different versions.
const benchVersion = "gpummu.bench/v1"

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceDir string
	out      string
	root     string // repository root
	work     string // scratch: built binaries, server stores, traces, results
	smoke    bool
}

// env is what one run of a workload sees.
type env struct {
	options
	tr *tracer // nil when untraced
}

// measureUntil returns the end of a measured phase starting now.
func (e *env) measureUntil() time.Time {
	return time.Now().Add(time.Duration(e.seconds) * time.Second)
}

type workload struct {
	name   string
	params func(o options) map[string]any
	run    func(e *env) (*outcome, error)
}

var allWorkloads = []workload{
	{"exact-augmented", exactAugmented.params, exactAugmented.run},
	{"exact-blocking", exactBlocking.params, exactBlocking.run},
	{"campaign-tiny", campaignParams, runCampaign},
	{"service-openloop", serviceParams, runService},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// outcome is what one run of a workload measured and checked.
type outcome struct {
	metrics   map[string]float64
	samples   map[string]sampleInfo
	checks    []check
	digests   map[string]string
	attempted int
	failed    int
}

// sampleInfo records how many samples a metric summarises and, for a
// percentile, which quantile was reported.
type sampleInfo struct {
	N        int     `json:"n"`
	Quantile float64 `json:"quantile,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]sampleInfo{}, digests: map[string]string{}}
}

// set records a metric; n > 0 also records its sample count.
func (o *outcome) set(name string, v float64, n int) {
	o.metrics[name] = v
	if n > 0 {
		o.samples[name] = sampleInfo{N: n}
	}
}

// setMedian records the median of xs.
func (o *outcome) setMedian(name string, xs []float64) {
	o.metrics[name] = median(xs)
	o.samples[name] = sampleInfo{N: len(xs), Quantile: 0.5}
}

// setTail records the want-quantile of xs, lowered as tail() requires.
func (o *outcome) setTail(name string, xs []float64, want float64) {
	v, q, n := tail(xs, want)
	o.metrics[name] = v
	o.samples[name] = sampleInfo{N: n, Quantile: q}
}

func (o *outcome) expect(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	o.checks = append(o.checks, c)
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return len(o.checks) > 0
}

// stamp identifies where and from what a document was measured.
type stamp struct {
	BenchVersion string `json:"bench_version"`
	HostCPUs     int    `json:"host_cpus"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Platform     string `json:"platform"`
	CPUModel     string `json:"cpu_model"`
	GitSHA       string `json:"git_sha"`
	GitDirty     bool   `json:"git_dirty"`
	Time         string `json:"time"`
}

// host is the part of the stamp two documents must share to be compared.
func (s stamp) host() string {
	return fmt.Sprintf("%s cpus=%d gomaxprocs=%d %s %s", s.CPUModel, s.HostCPUs, s.GOMAXPROCS, s.Platform, s.GoVersion)
}

func newStamp(root string) stamp {
	s := stamp{
		BenchVersion: benchVersion,
		HostCPUs:     runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Platform:     runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:     "unknown",
		GitSHA:       "unknown",
		Time:         time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout without git history stays "unknown".
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		s.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			s.GitDirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	return s
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// document is the full record of one invocation.
type document struct {
	Schema    string                `json:"schema"`
	Workload  string                `json:"workload"`
	Seed      uint64                `json:"seed"`
	Trace     int                   `json:"trace"`
	Stamp     stamp                 `json:"stamp"`
	Params    map[string]any        `json:"params"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Checks    []check               `json:"checks"`
	Digests   map[string]string     `json:"digests"`
	Metrics   map[string]value      `json:"metrics"`
	Samples   map[string]sampleInfo `json:"samples"`
	// SpanSelfMS is each span name's summed self time (traced runs).
	SpanSelfMS map[string]float64 `json:"span_self_ms,omitempty"`
}

// summary is the compact line printed last.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (d *document) summary() summary {
	set := endToEnd
	if d.Trace == 1 {
		set = perLayer
	}
	s := summary{Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed, Metrics: map[string]value{}}
	for _, m := range set {
		if v, ok := d.Metrics[m.Name]; ok {
			s.Metrics[m.Name] = v
		}
	}
	return s
}

func (d *document) addMetrics(o *outcome, set []metric) {
	for _, m := range set {
		d.Metrics[m.Name] = value{Value: o.metrics[m.Name], Unit: m.Unit}
		if si, ok := o.samples[m.Name]; ok {
			d.Samples[m.Name] = si
		}
	}
}

func main() {
	var o options
	compare := flag.Bool("compare", false, "compare two directories of result documents: -compare A/ B/")
	flag.StringVar(&o.workload, "workload", "", "workload to run: exact-augmented, exact-blocking, campaign-tiny, service-openloop")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the generated inputs and the open-loop schedule")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured phase in seconds (closed loops always finish one pass)")
	flag.IntVar(&o.trace, "trace", 0, "1 reruns the workload traced and prints the per-layer metrics")
	flag.StringVar(&o.traceDir, "tracedir", "", "where a traced run writes spans.json, cpu.pprof and layers.json (default <work>/trace/<workload>-s<seed>)")
	flag.StringVar(&o.out, "out", "", "directory the full result document is saved to (default <work>/results)")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.work, "work", ".bench_build", "scratch directory for binaries, server stores and outputs")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes, one figure and 1 s service steps: every workload in a few seconds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A/ B/")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	doc, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	full, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if err := saveDocument(o, doc, full); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(doc.summary())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n%s\n", full, line)
	if !doc.Correct {
		os.Exit(1)
	}
}

func saveDocument(o options, doc *document, full []byte) error {
	dir := o.out
	if dir == "" {
		dir = filepath.Join(o.work, "results")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-s%d-t%d.json", doc.Workload, doc.Seed, doc.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(full, '\n'), 0o644)
}

// run measures the workload untraced and, with -trace 1, again traced.
func run(o options) (*document, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.smoke {
		o.seconds = 2
	}
	if o.seconds < 0 {
		return nil, fmt.Errorf("-seconds must not be negative")
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	params := w.params(o)
	params["seconds"] = o.seconds
	params["smoke"] = o.smoke
	doc := &document{
		Schema: benchVersion, Workload: w.name, Seed: o.seed, Trace: o.trace,
		Stamp: newStamp(o.root), Params: params,
		Metrics: map[string]value{}, Samples: map[string]sampleInfo{},
	}

	base, err := w.run(&env{options: o})
	if err != nil {
		return nil, err
	}
	doc.addMetrics(base, endToEnd)
	doc.Checks, doc.Digests = base.checks, base.digests
	doc.Attempted, doc.Failed = base.attempted, base.failed
	doc.Correct = base.correct()
	if o.trace == 0 {
		return doc, nil
	}

	dir := o.traceDir
	if dir == "" {
		dir = filepath.Join(o.work, "trace", fmt.Sprintf("%s-s%d", w.name, o.seed))
	}
	traced, spans, err := runTraced(o, w, dir)
	if err != nil {
		return nil, err
	}
	traced.set("trace.overhead_frac", ratio(traced.metrics["latency_ms"], base.metrics["latency_ms"])-1, 0)
	doc.addMetrics(traced, perLayer)
	for _, c := range traced.checks {
		c.Name = "traced/" + c.Name
		doc.Checks = append(doc.Checks, c)
	}
	// Time-bounded runs may reach different numbers of passes; every run
	// both made must agree.
	shared, same := 0, true
	for k, d := range traced.digests {
		if b, ok := base.digests[k]; ok {
			shared++
			same = same && b == d
		}
	}
	same = same && shared > 0
	doc.Checks = append(doc.Checks, check{Name: "traced run reproduces the untraced digests", OK: same})
	doc.Attempted += traced.attempted
	doc.Failed += traced.failed
	doc.Correct = doc.Correct && traced.correct() && same

	doc.SpanSelfMS = map[string]float64{}
	for name, d := range selfTimes(spans) {
		doc.SpanSelfMS[name] = float64(d) / 1e6
	}
	layers := map[string]any{"metrics": doc.Metrics, "samples": doc.Samples, "span_self_ms": doc.SpanSelfMS}
	b, err := json.MarshalIndent(layers, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.json"), append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	return doc, nil
}

// runTraced reruns the workload with spans, a CPU profile and runtime
// counters, and writes spans.json and cpu.pprof into dir.
func runTraced(o options, w workload, dir string) (*outcome, []span, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	profPath := filepath.Join(dir, "cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, nil, err
	}
	tr := newTracer()
	heap := startHeapSampler()
	rt0 := readRuntime()
	out, runErr := w.run(&env{options: o, tr: tr})
	rt1 := readRuntime()
	peakHeap := heap.stop()
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, nil, runErr
	}

	shares, err := cpuShares(profPath)
	if err != nil {
		return nil, nil, err
	}
	for l, s := range shares {
		out.set("cpu_share."+l, s, 0)
	}
	out.set("runtime.gc_cpu_s", rt1.gcCPU-rt0.gcCPU, 0)
	out.set("runtime.gc_cycles", rt1.gcCycles-rt0.gcCycles, 0)
	out.set("runtime.heap_peak_mb", peakHeap/(1<<20), 0)

	spans := tr.closed()
	if err := writeChromeTrace(filepath.Join(dir, "spans.json"), spans); err != nil {
		return nil, nil, err
	}
	return out, spans, nil
}

// runtimeCounters are the cumulative Go runtime counters a run is
// charged with.
type runtimeCounters struct {
	gcCPU, gcCycles, allocObjects, allocBytes float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeCounters{num(s[0].Value), num(s[1].Value), num(s[2].Value), num(s[3].Value)}
}

// heapSampler tracks the peak of live heap objects while a traced run
// goes on.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, float64(s[0].Value.Uint64()))
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.wg.Wait()
	return h.peak
}

// selfMaxRSSMB returns this process's peak resident set size.
func selfMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
