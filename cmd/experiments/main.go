// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -fig all  -size small          # everything
//	experiments -fig 2    -size medium         # one figure
//	experiments -fig 2,4,13                    # a subset, one report
//	experiments -fig 3 -workloads bfs,mummergpu
//	experiments -fig all -j 8 -v               # 8 workers, progress on stderr
//	experiments -campaign sweep.yaml           # a declarative campaign file
//	experiments -campaign sweep.yaml -validate # check + print canonical form
//	experiments -list
//
// Output is a markdown-ish report: one table per figure, shaped like the
// paper's plots (rows = workloads, columns = configurations, values =
// speedup over the no-TLB baseline unless stated otherwise).
//
// The run matrix of every requested figure is planned up front, deduped,
// and executed on -j parallel workers (default: GOMAXPROCS); tables are
// rendered afterwards from the completed results, so the report bytes are
// identical for any -j. A spec that fails (e.g. a simulated deadlock) is
// reported on stderr with its workload and configuration and fails only
// the figures that need it; the rest of the report still renders.
//
// With -campaign, the file supplies every setting a flag would; flags the
// command line sets explicitly override the campaign (flags > campaign >
// defaults, see DESIGN.md section 13). -machine replaces the campaign's
// whole machine block; -fig replaces its figure list (and drops its sweep).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gpummu/internal/campaign"
	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/gpu"
	"gpummu/internal/obs"
	"gpummu/internal/workloads"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure id (2,3,4,6,7,10,11,13,16,17,18,20,22,LP,EXT), a comma list, or 'all'")
		size     = flag.String("size", "small", "dataset scale: tiny|small|medium|large")
		seed     = flag.Uint64("seed", 1, "workload generation seed")
		wl       = flag.String("workloads", "", "comma-separated workload subset (default: paper's six)")
		list     = flag.Bool("list", false, "list figures and exit")
		verbose  = flag.Bool("v", false, "log every simulation run to stderr")
		workers  = flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulation workers")
		checkpt  = flag.Bool("checkpoint", false, "warm-start runs from per-workload post-build snapshots (output is identical either way)")
		plan     = flag.String("sampleplan", "", "run every simulation under interval sampling warmup,detail,fastforward[,warm] (cycles); empty = exact")
		smpRep   = flag.Bool("samplereport", false, "append the exact-vs-sampled validation table for -sampleplan (runs each workload twice)")
		machine  = flag.String("machine", "baseline", "machine preset: baseline|small")
		coresOvr = flag.Int("cores", 0, "override shader core count (0 = preset)")
		sample   = flag.Uint64("sample", 0, "record a time-series sample every N cycles in every run")
		smplDir  = flag.String("sampledir", "", "write each run's sampled series as CSV into this directory (requires -sample)")
		watchdog = flag.Uint64("watchdog", 0, "abort a run when no thread block retires for N cycles (0 = off)")
		maxCyc   = flag.Uint64("maxcycles", 0, "per-run simulated cycle budget (0 = unbounded)")
		deadline = flag.Duration("deadline", 0, "wall-clock budget for the whole report, e.g. 10m (0 = none)")
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
		fmt.Print(experiments.Summary())
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
	if *validate {
		if camp == nil {
			fatal("-validate requires -campaign")
		}
		os.Stdout.Write(camp.Emit())
		return
	}

	sizeName := *size
	if camp != nil && !isSet["size"] {
		sizeName = camp.Workloads.Size
	}
	sz, err := workloads.ParseSize(sizeName)
	if err != nil {
		fatal("-size: %v", err)
	}

	seedV := *seed
	if camp != nil && !isSet["seed"] {
		seedV = camp.Workloads.Seed
	}
	workersV := *workers
	if camp != nil && !isSet["j"] && camp.Run.Workers > 0 {
		workersV = camp.Run.Workers
	}
	checkptV := *checkpt
	if camp != nil && !isSet["checkpoint"] {
		checkptV = camp.Run.Checkpoint
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
	if *smpRep && !samplePlan.Enabled() {
		fatal("-samplereport needs -sampleplan (or a campaign with run.sampling)")
	}

	// -machine replaces the campaign's whole machine block (preset and
	// overrides); otherwise the campaign machine is used as-is. -cores
	// applies last either way.
	var machineFn func() config.Hardware
	if camp != nil && !isSet["machine"] {
		machineFn = camp.MachineFunc()
	} else {
		switch *machine {
		case "baseline":
			machineFn = config.Baseline
		case "small":
			machineFn = config.SmallTest
		default:
			fatal("unknown -machine %q (have baseline, small)", *machine)
		}
	}
	if *coresOvr > 0 {
		base := machineFn
		machineFn = func() config.Hardware {
			c := base()
			c.NumCores = *coresOvr
			return c
		}
	}

	ob := experiments.ObsOptions{
		SampleEvery: *sample,
		SampleDir:   *smplDir,
		Watchdog:    *watchdog,
		MaxCycles:   *maxCyc,
	}
	deadlineV := *deadline
	if camp != nil {
		if !isSet["sample"] {
			ob.SampleEvery = camp.Obs.SampleEvery
		}
		if !isSet["sampledir"] {
			ob.SampleDir = camp.Obs.SampleDir
		}
		if !isSet["watchdog"] {
			ob.Watchdog = camp.Obs.Watchdog
		}
		if !isSet["maxcycles"] {
			ob.MaxCycles = camp.Obs.MaxCycles
		}
		if !isSet["deadline"] {
			deadlineV = camp.Obs.Deadline
		}
	}
	if ob.SampleDir != "" && ob.SampleEvery == 0 {
		fatal("-sampledir requires -sample")
	}
	if deadlineV > 0 {
		ob.Deadline = time.Now().Add(deadlineV)
	}

	var names []string
	if camp != nil && !isSet["workloads"] {
		names = camp.Workloads.Names
	} else if *wl != "" {
		for _, n := range strings.Split(*wl, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	// Fail fast on names the registry (or the trace resolver) rejects,
	// listing what would have worked, instead of erroring mid-report.
	for _, n := range names {
		if err := workloads.Resolve(n); err != nil {
			fatal("-workloads: %v", err)
		}
	}

	opt := experiments.Options{
		Size:       sz,
		Seed:       seedV,
		Machine:    machineFn,
		Workload:   names,
		Workers:    workersV,
		Verbose:    *verbose,
		Obs:        ob,
		Checkpoint: checkptV,
		Sampling:   samplePlan,
	}

	var figs []experiments.Figure
	if camp != nil && !isSet["fig"] {
		figs, err = camp.ExpandFigures()
		if err != nil {
			fatal("%v", err)
		}
	} else if *fig == "all" {
		figs = experiments.All()
	} else {
		for _, id := range strings.Split(*fig, ",") {
			id = strings.TrimSpace(id)
			if !strings.HasPrefix(id, "fig") {
				id = "fig" + id
			}
			f, err := experiments.ByID(id)
			if err != nil {
				fatal("%v", err)
			}
			figs = append(figs, f)
		}
	}

	// The campaign's output.report redirects the report into a file; flag
	// invocations keep writing to stdout.
	out := io.Writer(os.Stdout)
	var reportFile *os.File
	if camp != nil && camp.Output.Report != "" {
		if dir := filepath.Dir(camp.Output.Report); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal("output.report: %v", err)
			}
		}
		f, err := os.Create(camp.Output.Report)
		if err != nil {
			fatal("output.report: %v", err)
		}
		reportFile = f
		out = f
	}
	closeReport := func() {
		if reportFile == nil {
			return
		}
		if err := reportFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: output.report: %v\n", err)
		}
		reportFile = nil
	}

	h := experiments.New(out, opt)

	// RunFigures keeps going past failed specs: broken runs are logged by
	// the executor and surface here after the full report has rendered.
	if err := experiments.RunFigures(h, figs); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: some figures failed:\n%v\n", err)
		closeReport()
		stopProfiles()
		os.Exit(1)
	}
	if *smpRep {
		body, err := experiments.SampledReport(h, samplePlan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: sampled report: %v\n", err)
			closeReport()
			stopProfiles()
			os.Exit(1)
		}
		fmt.Fprintf(out, "\n## sampled-vs-exact — interval sampling validation (plan %s)\n\n%s\n", samplePlan, body)
	}
	closeReport()
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
