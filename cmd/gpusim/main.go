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
// Every run is a campaign (DESIGN.md section 13): the -campaign file, or
// gpusim's defaults (bfs on the baseline machine), with each flag set on
// the command line overriding the field it names (section 13.2). -validate
// prints that campaign. Campaigns that declare sweep axes or figures
// belong to cmd/experiments — gpusim runs only the workload set.
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
	// Flags that name campaign fields only document their defaults here:
	// campaign.ApplyFlags gives them their meaning.
	flag.String("workload", "bfs", "workload name, comma list, or 'all' (see -list)")
	flag.String("size", "small", "tiny|small|medium|large")
	flag.Uint64("seed", 1, "workload seed")
	flag.String("mmu", "none", "MMU preset: none|naive|nonblocking|augmented|ideal")
	flag.Int("ports", 0, "TLB ports (default: the MMU preset's)")
	flag.Int("entries", 0, "TLB entries (default: the MMU preset's)")
	flag.Int("ptws", 0, "hardware page table walkers per core (default: the MMU preset's)")
	flag.String("sched", "lrr", "lrr|gto|ccws|ta-ccws|tcws")
	flag.String("tbc", "off", "off|tbc|tlb-aware")
	flag.String("pages", "4k", "4k|2m")
	flag.Int("sharedtlb", 0, "shared L2 TLB entries (0 = off; extension)")
	flag.Bool("software-walks", false, "service misses with OS handlers (extension)")
	flag.Int("pwc", 0, "page walk cache entries per core (0 = off; extension)")
	flag.Int("cores", 0, "core count (0 = the machine's, 30 on the baseline)")
	flag.Int("j", runtime.GOMAXPROCS(0), "parallel workers when running several workloads")
	flag.String("sampleplan", "", "interval sampling plan warmup,detail,fastforward[,warm] in cycles; empty = exact runs")
	flag.Uint64("sample", 0, "record a time-series sample every N cycles (single workload only)")
	flag.Uint64("watchdog", 0, "abort when no thread block retires for N cycles (0 = off)")
	flag.Uint64("maxcycles", 0, "abort after N simulated cycles (0 = unbounded)")
	flag.Duration("deadline", 0, "wall-clock budget for the run, e.g. 30s (0 = none)")
	var (
		list     = flag.Bool("list", false, "list workloads and exit")
		asJSON   = flag.Bool("json", false, "emit statistics as JSON")
		trace    = flag.String("trace", "", "write a Chrome trace-event JSON file, loadable in Perfetto (single workload only)")
		sampleTo = flag.String("samplefile", "", "CSV destination for -sample (default <workload>.samples.csv)")
		metrics  = flag.String("metrics", "", "write the labelled metrics registry to this file; '-' means stderr (single workload only)")
		progress = flag.Bool("v", false, "log per-run completion to stderr")
		campFile = flag.String("campaign", "", "campaign file (YAML or JSON); each flag set on the command line overrides the field it names (DESIGN.md section 13.2)")
		validate = flag.Bool("validate", false, "print the campaign the command line spells, in canonical form, and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

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

	// The base campaign is the -campaign file or gpusim's defaults; the
	// command line's flags then override it.
	var camp *campaign.Campaign
	if *campFile != "" {
		camp, err = campaign.Load(*campFile)
	} else {
		camp, err = campaign.NewAdhoc("gpusim", []string{"bfs"}, "", 0, "", nil, campaign.RunOptions{})
	}
	if err != nil {
		fatal("%v", err)
	}
	if err := camp.ApplyFlags(flag.CommandLine); err != nil {
		fatal("%v", err)
	}
	// -validate prints any campaign — including sweep campaigns gpusim
	// itself won't run — matching cmd/experiments.
	if *validate {
		os.Stdout.Write(camp.Emit())
		return
	}
	if len(camp.Sweep.Axes) > 0 {
		fatal("campaign %q declares sweep axes; run it with cmd/experiments", camp.Name)
	}
	cfg, err := camp.MachineConfig()
	if err != nil {
		fatal("%v", err)
	}
	size, seed, names := camp.Workloads.Size, camp.Workloads.Seed, camp.Workloads.Names
	sz, err := workloads.ParseSize(size)
	if err != nil {
		fatal("%v", err)
	}
	samplePlan, sampleEvery := camp.Run.Sampling, camp.Obs.SampleEvery
	if len(names) > 1 {
		for _, f := range []struct {
			name string
			on   bool
		}{
			{"-trace", *trace != ""},
			{"-sample", sampleEvery > 0}, {"-metrics", *metrics != ""},
		} {
			if f.on {
				fatal("%s needs a single workload", f.name)
			}
		}
	}

	// The deadline covers the whole command, so anchor it before fan-out.
	var deadlineAt time.Time
	if camp.Obs.Deadline > 0 {
		deadlineAt = time.Now().Add(camp.Obs.Deadline)
	}

	type outcome struct {
		text string // rendered report (or JSON object)
		err  error
	}
	results := make([]outcome, len(names))

	run := func(i int) outcome {
		name := names[i]
		start := time.Now()
		w, err := workloads.Build(name, sz, cfg.PageShift, seed)
		if err != nil {
			return outcome{err: err}
		}
		sim := experiments.Sim{
			Workload:  w,
			Config:    cfg,
			Sampling:  samplePlan,
			MaxCycles: camp.Obs.MaxCycles,
			Watchdog:  camp.Obs.Watchdog,
			Deadline:  deadlineAt,
		}
		var traceFile *os.File
		if *trace != "" {
			if traceFile, err = os.Create(*trace); err != nil {
				return outcome{err: fmt.Errorf("-trace: %w", err)}
			}
			sim.Trace = traceFile
		}
		if sampleEvery > 0 {
			sim.Sampler = obs.NewSampler(sampleEvery, 0)
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
			if err := writeJSON(&b, name, sz, seed, cfg, samplePlan, out.Cycles, out.Stats, out.Sampled, time.Since(start)); err != nil {
				return outcome{err: err}
			}
		} else {
			writeText(&b, name, size, out.Cycles, out.Stats, cfg, w, out.Sampled)
		}
		return outcome{text: b.String()}
	}

	// Fan the runs across -j workers; each builds its own workload and GPU
	// so nothing is shared. Reports print in workload order afterwards.
	nw := camp.Run.Workers
	if nw == 0 {
		nw = runtime.GOMAXPROCS(0)
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
