// Command gpusim runs workloads under one MMU/scheduler configuration and
// prints the full statistics — the quickest way to poke at the design
// space.
//
// Usage:
//
//	gpusim -workload bfs -size small -mmu augmented
//	gpusim -workload mummergpu -mmu naive -ports 3 -sched ccws
//	gpusim -workload memcached -mmu ideal -tbc tlb-aware -pages 2m
//	gpusim -workload all -j 8 -mmu augmented   # every workload, in parallel
//	gpusim -workload bfs,kmeans -json          # machine-readable array
//	gpusim -campaign replay.yaml               # machine + workloads from a file
//
// -campaign takes the machine, workload set, and run options from a
// campaign file (see DESIGN.md section 13); explicitly-set flags override
// it (flags > campaign > defaults). Campaigns that declare sweep axes or
// figures belong to cmd/experiments — gpusim runs only the workload set.
//
// -workload accepts a single name, a comma-separated list, or "all"; with
// more than one workload the simulations run on -j parallel goroutines
// (each with its own address space and GPU) and the reports print in
// workload order, so the output is identical for any -j.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"gpummu/internal/campaign"
	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/gpu"
	"gpummu/internal/obs"
	"gpummu/internal/service"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"

	"encoding/json"
)

func main() {
	// Server verbs (submit/status/results/compare/recommend) dispatch
	// before classic flag parsing: `gpusim submit ...` talks to gpusimd,
	// plain `gpusim -workload ...` simulates locally as always.
	if runClientVerb() {
		return
	}
	var (
		workload = flag.String("workload", "bfs", "workload name, comma list, or 'all' (see -list)")
		size     = flag.String("size", "small", "tiny|small|medium|large")
		seed     = flag.Uint64("seed", 1, "workload seed")
		mmu      = flag.String("mmu", "none", "none|naive|nonblocking|augmented|ideal")
		ports    = flag.Int("ports", 4, "TLB ports (naive/nonblocking/augmented)")
		entries  = flag.Int("entries", 128, "TLB entries")
		ptws     = flag.Int("ptws", 1, "hardware page table walkers per core")
		sched    = flag.String("sched", "lrr", "lrr|gto|ccws|ta-ccws|tcws")
		tbc      = flag.String("tbc", "off", "off|tbc|tlb-aware")
		pages    = flag.String("pages", "4k", "4k|2m")
		shared   = flag.Int("sharedtlb", 0, "shared L2 TLB entries (0 = off; extension)")
		software = flag.Bool("software-walks", false, "service misses with OS handlers (extension)")
		pwc      = flag.Int("pwc", 0, "page walk cache entries per core (0 = off; extension)")
		cores    = flag.Int("cores", 0, "override core count (0 = 30)")
		workers  = flag.Int("j", runtime.GOMAXPROCS(0), "parallel workers when running several workloads")
		benchSmp = flag.Bool("benchsampling", false, "measure sampled-vs-exact wall clock and accuracy per workload on the augmented MMU; emits a JSON record on stdout")
		benchLbl = flag.String("benchlabel", "", "commit label stamped into bench records (tools/bench.sh passes the git SHA)")
		plan     = flag.String("sampleplan", "", "interval sampling plan warmup,detail,fastforward[,warm] in cycles; empty = exact runs")
		list     = flag.Bool("list", false, "list workloads and exit")
		asJSON   = flag.Bool("json", false, "emit statistics as JSON")
		trace    = flag.String("trace", "", "write a Chrome trace-event JSON file, loadable in Perfetto (single workload only)")
		sample   = flag.Uint64("sample", 0, "record a time-series sample every N cycles (single workload only)")
		sampleTo = flag.String("samplefile", "", "CSV destination for -sample (default <workload>.samples.csv)")
		metrics  = flag.String("metrics", "", "write the labelled metrics registry to this file; '-' means stderr (single workload only)")
		watchdog = flag.Uint64("watchdog", 0, "abort when no thread block retires for N cycles (0 = off)")
		maxCyc   = flag.Uint64("maxcycles", 0, "abort after N simulated cycles (0 = unbounded)")
		deadline = flag.Duration("deadline", 0, "wall-clock budget for the run, e.g. 30s (0 = none)")
		progress = flag.Bool("v", false, "log per-run completion to stderr")
		campFile = flag.String("campaign", "", "campaign file (YAML or JSON); explicitly-set flags override it")
		validate = flag.Bool("validate", false, "validate -campaign, print its canonical form, and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// isSet records which flags the command line touched: an explicitly-set
	// flag beats the campaign, an untouched one defers to it.
	isSet := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { isSet[f.Name] = true })

	stopProf, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fatal("%v", err)
	}
	stopProfiles := func() {
		if err := stopProf(); err != nil {
			fatal("%v", err)
		}
	}
	defer stopProfiles()

	if *list {
		for _, n := range workloads.Names() {
			fmt.Println(n)
		}
		return
	}

	var camp *campaign.Campaign
	if *campFile != "" {
		c, err := campaign.Load(*campFile)
		if err != nil {
			fatal("%v", err)
		}
		camp = c
	}
	// -validate checks and canonicalises any campaign — including sweep
	// campaigns gpusim itself won't run — matching cmd/experiments.
	if *validate {
		if camp == nil {
			fatal("-validate requires -campaign")
		}
		os.Stdout.Write(camp.Emit())
		return
	}
	if camp != nil && len(camp.Sweep.Axes) > 0 {
		fatal("campaign %q declares sweep axes; run it with cmd/experiments", camp.Name)
	}

	var cfg config.Hardware
	if camp != nil {
		c, err := camp.MachineConfig()
		if err != nil {
			fatal("%v", err)
		}
		cfg = c
	} else {
		cfg = config.Baseline()
	}
	if *cores > 0 {
		cfg.NumCores = *cores
	}

	// Without a campaign the -mmu/-sched/-tbc/-pages blocks apply as they
	// always have (flag defaults included). With one, the campaign machine
	// is authoritative and only explicitly-set flags override it.
	if camp == nil || isSet["mmu"] {
		switch *mmu {
		case "none":
			if isSet["mmu"] {
				cfg.MMU = config.MMU{Enabled: false}
			}
		case "naive":
			cfg.MMU = config.NaiveMMU(*ports)
		case "nonblocking":
			cfg.MMU = config.NaiveMMU(*ports)
			cfg.MMU.HitsUnderMiss = true
			cfg.MMU.CacheOverlap = true
		case "augmented":
			cfg.MMU = config.AugmentedMMU()
			cfg.MMU.Ports = *ports
		case "ideal":
			cfg.MMU = config.MMU{}.Ideal()
		default:
			fatal("unknown -mmu %q", *mmu)
		}
		if cfg.MMU.Enabled {
			cfg.MMU.Entries = *entries
			cfg.MMU.NumPTWs = *ptws
			cfg.MMU.SharedTLBEntries = *shared
			cfg.MMU.PWCEntries = *pwc
			if *software {
				cfg.MMU.SoftwareWalks = true
				cfg.MMU.SoftwareWalkOverhead = 300
			}
		}
	} else if cfg.MMU.Enabled {
		if isSet["entries"] {
			cfg.MMU.Entries = *entries
		}
		if isSet["ports"] {
			cfg.MMU.Ports = *ports
		}
		if isSet["ptws"] {
			cfg.MMU.NumPTWs = *ptws
		}
		if isSet["sharedtlb"] {
			cfg.MMU.SharedTLBEntries = *shared
		}
		if isSet["pwc"] {
			cfg.MMU.PWCEntries = *pwc
		}
		if isSet["software-walks"] && *software {
			cfg.MMU.SoftwareWalks = true
			cfg.MMU.SoftwareWalkOverhead = 300
		}
	}

	if camp == nil || isSet["sched"] {
		switch *sched {
		case "lrr":
			if isSet["sched"] {
				cfg.Sched.Policy = config.SchedLRR
			}
		case "gto":
			cfg.Sched.Policy = config.SchedGTO
		case "ccws":
			cfg.Sched.Policy = config.SchedCCWS
		case "ta-ccws":
			cfg.Sched.Policy = config.SchedTACCWS
			cfg.Sched.TLBMissWeight = 4
		case "tcws":
			cfg.Sched.Policy = config.SchedTCWS
			cfg.Sched.TLBMissWeight = 4
			cfg.Sched.VTAEntriesPerWarp = 8
			cfg.Sched.LRUDepthWeights = []int{1, 2, 4, 8}
		default:
			fatal("unknown -sched %q", *sched)
		}
	}

	if camp == nil || isSet["tbc"] {
		switch *tbc {
		case "off":
			if isSet["tbc"] {
				cfg.TBC.Mode = config.DivStack
			}
		case "tbc":
			cfg.TBC.Mode = config.DivTBC
		case "tlb-aware":
			cfg.TBC.Mode = config.DivTLBTBC
		default:
			fatal("unknown -tbc %q", *tbc)
		}
	}

	if camp == nil || isSet["pages"] {
		switch *pages {
		case "4k":
			if isSet["pages"] {
				cfg.PageShift = 12
			}
		case "2m":
			cfg.PageShift = 21
		default:
			fatal("unknown -pages %q", *pages)
		}
	}

	if camp != nil && !isSet["size"] {
		*size = camp.Workloads.Size
	}
	sz, err := workloads.ParseSize(*size)
	if err != nil {
		fatal("-size: %v", err)
	}
	if camp != nil && !isSet["seed"] {
		*seed = camp.Workloads.Seed
	}
	samplePlan := gpu.SamplePlan{}
	if camp != nil && !isSet["sampleplan"] {
		samplePlan = camp.Run.Sampling
	} else if *plan != "" {
		p, err := gpu.ParseSamplePlan(*plan)
		if err != nil {
			fatal("-sampleplan: %v", err)
		}
		samplePlan = p
	}
	if camp != nil && !isSet["j"] && camp.Run.Workers > 0 {
		*workers = camp.Run.Workers
	}
	if camp != nil && !isSet["watchdog"] {
		*watchdog = camp.Obs.Watchdog
	}
	if camp != nil && !isSet["maxcycles"] {
		*maxCyc = camp.Obs.MaxCycles
	}
	if camp != nil && !isSet["deadline"] {
		*deadline = camp.Obs.Deadline
	}

	var names []string
	if camp != nil && !isSet["workload"] {
		names = camp.Workloads.Names
	} else if *workload == "all" {
		names = workloads.Names()
	} else {
		for _, n := range strings.Split(*workload, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	if len(names) == 0 {
		fatal("no workloads given")
	}
	// Fail fast on names the registry (or the trace resolver) rejects,
	// listing what would have worked.
	for _, n := range names {
		if err := workloads.Resolve(n); err != nil {
			fatal("%v", err)
		}
	}
	if len(names) > 1 {
		for _, f := range []struct {
			name string
			on   bool
		}{
			{"-trace", *trace != ""},
			{"-sample", *sample > 0}, {"-metrics", *metrics != ""},
		} {
			if f.on {
				fatal("%s needs a single workload", f.name)
			}
		}
	}
	if *benchSmp {
		if !samplePlan.Enabled() {
			// The validated default: windows long enough that the TLBs
			// re-warm organically inside each warmup (DESIGN.md §15).
			samplePlan = gpu.SamplePlan{Warmup: 20000, Detail: 20000, FastForward: 1000000}
		}
		if err := runBenchSampling(cfg, names, *size, sz, *seed, samplePlan, *benchLbl); err != nil {
			fatal("%v", err)
		}
		return
	}

	// The deadline covers the whole command, so anchor it before fan-out.
	var deadlineAt time.Time
	if *deadline > 0 {
		deadlineAt = time.Now().Add(*deadline)
	}

	type outcome struct {
		text string // rendered report (or JSON object)
		err  error
	}
	results := make([]outcome, len(names))

	run := func(i int) outcome {
		name := names[i]
		start := time.Now()
		w, err := workloads.Build(name, sz, cfg.PageShift, *seed)
		if err != nil {
			return outcome{err: err}
		}
		sim := experiments.Sim{
			Workload:  w,
			Config:    cfg,
			Sampling:  samplePlan,
			MaxCycles: *maxCyc,
			Watchdog:  *watchdog,
			Deadline:  deadlineAt,
		}
		var traceFile *os.File
		if *trace != "" {
			if traceFile, err = os.Create(*trace); err != nil {
				return outcome{err: fmt.Errorf("-trace: %w", err)}
			}
			sim.Trace = traceFile
		}
		if *sample > 0 {
			sim.Sampler = obs.NewSampler(*sample, 0)
		}
		if *metrics != "" {
			sim.Metrics = obs.NewRegistry()
		}
		out, err := experiments.Run(context.Background(), sim)
		if traceFile != nil {
			// Run closed the trace document even on abort: a partial but
			// well-formed trace is exactly what livelock debugging needs.
			if cerr := traceFile.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("-trace: %w", cerr)
			}
		}
		if err != nil {
			return outcome{err: fmt.Errorf("%s: %w", name, err)}
		}
		if sim.Sampler != nil {
			dst := *sampleTo
			if dst == "" {
				dst = name + ".samples.csv"
			}
			if err := writeSamples(sim.Sampler, dst); err != nil {
				return outcome{err: err}
			}
		}
		if sim.Metrics != nil {
			if err := writeMetrics(sim.Metrics, *metrics); err != nil {
				return outcome{err: err}
			}
		}
		if *progress {
			fmt.Fprintf(os.Stderr, "# ran %s in %v: %d cycles\n",
				name, time.Since(start).Round(time.Millisecond), out.Cycles)
		}
		var b strings.Builder
		if *asJSON {
			if err := writeJSON(&b, name, sz, *seed, cfg, samplePlan, out.Cycles, out.Stats, out.Sampled, time.Since(start)); err != nil {
				return outcome{err: err}
			}
		} else {
			writeText(&b, name, *size, out.Cycles, out.Stats, cfg, w, out.Sampled)
		}
		return outcome{text: b.String()}
	}

	// Fan the runs across -j workers; each builds its own workload and GPU
	// so nothing is shared. Reports print in workload order afterwards.
	nw := *workers
	if nw < 1 {
		nw = 1
	}
	if nw > len(names) {
		nw = len(names)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < nw; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = run(i)
			}
		}()
	}
	for i := range names {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	failed := false
	if *asJSON && len(names) > 1 {
		fmt.Println("[")
	}
	for i, res := range results {
		if res.err != nil {
			fmt.Fprintf(os.Stderr, "gpusim: %v\n", res.err)
			failed = true
			continue
		}
		text := res.text
		if *asJSON && len(names) > 1 {
			text = strings.TrimRight(text, "\n")
			if i < len(results)-1 {
				text += ","
			}
		}
		fmt.Println(strings.TrimRight(text, "\n"))
	}
	if *asJSON && len(names) > 1 {
		fmt.Println("]")
	}
	if failed {
		stopProfiles()
		os.Exit(1)
	}
}

// writeSamples persists the run's cycle-sampled time series as CSV.
func writeSamples(smp *obs.Sampler, dst string) error {
	f, err := os.Create(dst)
	if err != nil {
		return fmt.Errorf("-sample: %w", err)
	}
	if err := smp.WriteCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("-sample: %w", err)
	}
	return f.Close()
}

// writeMetrics dumps the labelled metrics registry; dst "-" means stderr.
func writeMetrics(reg *obs.Registry, dst string) error {
	if dst == "-" {
		return reg.WriteText(os.Stderr)
	}
	f, err := os.Create(dst)
	if err != nil {
		return fmt.Errorf("-metrics: %w", err)
	}
	if err := reg.WriteText(f); err != nil {
		f.Close()
		return fmt.Errorf("-metrics: %w", err)
	}
	return f.Close()
}

// writeText renders the classic human-readable per-run report. Under a
// sample plan, cycles is the detailed cycle count and smp carries the
// extrapolated whole-run estimates appended at the end.
func writeText(out io.Writer, name, size string, cycles uint64, st *stats.Sim, cfg config.Hardware, w *workloads.Workload, smp *stats.Sampled) {
	fmt.Fprintln(out, "functional check: ok")
	inv := w.AS.PT.Inventory()
	fmt.Fprintf(out, "workload=%s size=%s cycles=%d\n", name, size, cycles)
	fmt.Fprintf(out, "vm: mapped=%dMB pagetables=%dKB (%d pages) simd-util=%.1f%%\n",
		inv.MappedBytes()>>20, inv.TableBytes()>>10, inv.TotalTablePages(),
		100*st.SIMDUtilisation(cfg.WarpWidth))
	fmt.Fprint(out, st.String())
	fmt.Fprintf(out, "l1: hits=%d misses=%d (%.1f%%)  l2: hits=%d misses=%d (%.1f%%)\n",
		st.L1Hits, st.L1Misses, 100*st.L1MissRate(), st.L2Hits, st.L2Misses, 100*st.L2MissRate())
	if cfg.MMU.Enabled {
		fmt.Fprintf(out, "tlb: hits=%d misses=%d hitsundermiss=%d walklat=%.0f\n",
			st.TLBHits, st.TLBMisses, st.TLBHitUnder, st.WalkLat.Mean())
		if st.SharedTLBAccesses > 0 {
			fmt.Fprintf(out, "shared-tlb: acc=%d hits=%d misses=%d\n",
				st.SharedTLBAccesses, st.SharedTLBHits, st.SharedTLBMisses)
		}
	}
	if cfg.TBC.Mode != config.DivStack {
		fmt.Fprintf(out, "tbc: compacted=%d cpm-rejects=%d\n", st.CompactedWarps, st.CPMRejects)
	}
	if smp != nil {
		fmt.Fprint(out, smp.Summary())
	}
}

// writeJSON renders one run as the versioned service.Result envelope —
// the same JSON object the job server stores and serves, so `gpusim
// -json` output, /v1/results responses, and durable store lines all share
// one schema ("gpummu.result/v1").
func writeJSON(out io.Writer, name string, sz workloads.Size, seed uint64, cfg config.Hardware,
	plan gpu.SamplePlan, cycles uint64, st *stats.Sim, smp *stats.Sampled, wall time.Duration) error {
	env := service.New(name, sz, seed, cfg, plan, cycles, st, smp, wall, nil)
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "gpusim: "+format+"\n", args...)
	os.Exit(1)
}
