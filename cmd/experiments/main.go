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
// Every report is a campaign (DESIGN.md section 13): the -campaign file,
// or the paper's six workloads under every figure on the baseline
// machine, with each flag set on the command line overriding the field it
// names (section 13.2). -machine replaces the whole machine block; -fig
// replaces the figure list and drops the sweep. -validate prints the
// campaign.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"gpummu/internal/campaign"
	"gpummu/internal/experiments"
	"gpummu/internal/obs"
)

func main() {
	// Flags that name campaign fields only document their defaults here:
	// campaign.ApplyFlags gives them their meaning.
	flag.String("fig", "all", "figure id (2,3,4,6,7,10,11,13,16,17,18,20,22,LP,EXT), a comma list, or 'all'")
	flag.String("size", "small", "dataset scale: tiny|small|medium|large")
	flag.Uint64("seed", 1, "workload generation seed")
	flag.String("workloads", "", "comma-separated workload subset (default: paper's six)")
	flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulation workers")
	flag.Bool("checkpoint", false, "warm-start runs from per-workload post-build snapshots (output is identical either way)")
	flag.String("sampleplan", "", "run every simulation under interval sampling warmup,detail,fastforward[,warm] (cycles); empty = exact")
	flag.String("machine", "baseline", "machine preset: baseline|small")
	flag.Int("cores", 0, "shader core count (0 = the machine's)")
	flag.Uint64("sample", 0, "record a time-series sample every N cycles in every run")
	flag.String("sampledir", "", "write each run's sampled series as CSV into this directory (requires -sample)")
	flag.Uint64("watchdog", 0, "abort a run when no thread block retires for N cycles (0 = off)")
	flag.Uint64("maxcycles", 0, "per-run simulated cycle budget (0 = unbounded)")
	flag.Duration("deadline", 0, "wall-clock budget for the whole report, e.g. 10m (0 = none)")
	var (
		list     = flag.Bool("list", false, "list figures and exit")
		verbose  = flag.Bool("v", false, "log every simulation run to stderr")
		smpRep   = flag.Bool("samplereport", false, "append the exact-vs-sampled validation table for -sampleplan (runs each workload twice)")
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
		fmt.Print(experiments.Summary())
		return
	}

	// The base campaign is the -campaign file or the paper's six workloads
	// under every figure; the command line's flags then override it.
	var camp *campaign.Campaign
	if *campFile != "" {
		camp, err = campaign.Load(*campFile)
	} else {
		camp, err = campaign.NewAdhoc("experiments", nil, "", 0, "", nil, campaign.RunOptions{})
	}
	if err != nil {
		fatal("%v", err)
	}
	if *campFile == "" {
		for _, f := range experiments.All() {
			camp.Figures = append(camp.Figures, f.ID)
		}
	}
	if err := camp.ApplyFlags(flag.CommandLine); err != nil {
		fatal("%v", err)
	}
	if *validate {
		os.Stdout.Write(camp.Emit())
		return
	}
	opt, err := camp.HarnessOptions()
	if err != nil {
		fatal("%v", err)
	}
	opt.Verbose = *verbose
	if *smpRep && !opt.Sampling.Enabled() {
		fatal("-samplereport needs -sampleplan (or a campaign with run.sampling)")
	}
	figs, err := camp.ExpandFigures()
	if err != nil {
		fatal("%v", err)
	}

	// The campaign's output.report redirects the report into a file; flag
	// invocations keep writing to stdout.
	out := io.Writer(os.Stdout)
	var reportFile *os.File
	if camp.Output.Report != "" {
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
		body, err := experiments.SampledReport(h, opt.Sampling)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: sampled report: %v\n", err)
			closeReport()
			stopProfiles()
			os.Exit(1)
		}
		fmt.Fprintf(out, "\n## sampled-vs-exact — interval sampling validation (plan %s)\n\n%s\n", opt.Sampling, body)
	}
	closeReport()
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
