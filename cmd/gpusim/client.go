// The gpusimd client subcommands. gpusim keeps its classic flag interface
// for local runs; when the first argument is one of the verbs below, the
// run goes to a shared gpusimd server instead:
//
//	gpusim submit    -server URL -campaign file.yaml -wait -report
//	gpusim submit    -server URL -workload bfs,kmeans -machine small -wait
//	gpusim status    -server URL [jobID]
//	gpusim results   -server URL [-workload bfs] [-key KEY]
//	gpusim compare   -server URL KEY1 KEY2 [KEY...]
//	gpusim recommend -server URL -workload bfs [-metric cycles|ipc|tlbmissrate]
//
// submit prints job state as JSON on stderr (watchable with 2>status.json)
// and, with -report, streams the finished report to stdout — so a
// server-side campaign run plugs into the same shell pipelines as a local
// one. Everything here rides on service.Client (re-exported as
// gpummu.Client for programs embedding the simulator).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gpummu/internal/service"
)

// clientVerbs names the subcommands dispatched before classic flag
// parsing.
var clientVerbs = map[string]func(args []string) error{
	"submit":    runSubmit,
	"status":    runStatus,
	"results":   runResults,
	"compare":   runCompare,
	"recommend": runRecommend,
}

// runClientVerb dispatches gpusim's server subcommands. It returns false
// when os.Args names no verb and the classic flag path should run.
func runClientVerb() bool {
	if len(os.Args) < 2 {
		return false
	}
	verb, ok := clientVerbs[os.Args[1]]
	if !ok {
		return false
	}
	if err := verb(os.Args[2:]); err != nil {
		fmt.Fprintf(os.Stderr, "gpusim %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
	return true
}

// serverFlag installs the shared -server flag on a subcommand FlagSet.
func serverFlag(fs *flag.FlagSet) *string {
	return fs.String("server", "http://127.0.0.1:8080", "gpusimd base URL")
}

// printJSON writes v as indented JSON to the given stream.
func printJSON(w *os.File, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runSubmit posts a job and optionally waits for it and fetches its
// report.
func runSubmit(args []string) error {
	fs := flag.NewFlagSet("gpusim submit", flag.ExitOnError)
	server := serverFlag(fs)
	campFile := fs.String("campaign", "", "campaign file (YAML or JSON) to submit")
	workload := fs.String("workload", "", "comma-separated workloads for an ad-hoc run")
	size := fs.String("size", "", "tiny|small|medium|large (ad-hoc; default small)")
	seed := fs.Uint64("seed", 0, "workload seed (ad-hoc; default 1)")
	machine := fs.String("machine", "", "machine preset: baseline|small (ad-hoc)")
	name := fs.String("name", "", "job name (ad-hoc; default adhoc)")
	workers := fs.Int("j", 0, "simulation workers (0 = server default)")
	checkpoint := fs.Bool("checkpoint", false, "warm-start runs from post-build snapshots")
	plan := fs.String("sampleplan", "", "interval sampling plan warmup,detail,fastforward[,warm]")
	wait := fs.Bool("wait", false, "poll until the job finishes")
	report := fs.Bool("report", false, "print the finished report to stdout (implies -wait)")
	poll := fs.Duration("poll", 200*time.Millisecond, "poll interval for -wait")
	fs.Parse(args)

	req := service.SubmitRequest{
		Name:       *name,
		Size:       *size,
		Seed:       *seed,
		Machine:    *machine,
		Workers:    *workers,
		Checkpoint: *checkpoint,
		Sampling:   *plan,
	}
	if *workload != "" {
		for _, w := range strings.Split(*workload, ",") {
			if w = strings.TrimSpace(w); w != "" {
				req.Workloads = append(req.Workloads, w)
			}
		}
	}
	if *campFile != "" {
		doc, err := os.ReadFile(*campFile)
		if err != nil {
			return err
		}
		req.Campaign = string(doc)
	} else if len(req.Workloads) == 0 {
		return fmt.Errorf("nothing to submit: give -campaign or -workload")
	}

	c := service.NewClient(*server)
	// A full queue is a transient condition with an explicit server hint:
	// back off for exactly the advertised Retry-After a few times before
	// giving up.
	var job *service.Job
	var err error
	for attempt := 0; ; attempt++ {
		job, err = c.Submit(req)
		var qf *service.QueueFullError
		if err == nil || !errors.As(err, &qf) || attempt >= 4 {
			break
		}
		fmt.Fprintf(os.Stderr, "gpusim submit: %v, retrying\n", qf)
		time.Sleep(qf.RetryAfter)
	}
	if err != nil {
		return err
	}
	if !*wait && !*report {
		return printJSON(os.Stderr, job)
	}
	if job, err = c.Wait(context.Background(), job.ID, *poll); err != nil {
		return err
	}
	if err := printJSON(os.Stderr, job); err != nil {
		return err
	}
	if job.State != service.StateDone {
		return fmt.Errorf("job %s finished %s: %s", job.ID, job.State, job.Error)
	}
	if *report {
		body, err := c.Report(job.ID)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(body)
		return err
	}
	return nil
}

// runStatus prints one job (by ID) or the whole manifest.
func runStatus(args []string) error {
	fs := flag.NewFlagSet("gpusim status", flag.ExitOnError)
	server := serverFlag(fs)
	fs.Parse(args)
	c := service.NewClient(*server)
	if fs.NArg() > 0 {
		job, err := c.Job(fs.Arg(0))
		if err != nil {
			return err
		}
		return printJSON(os.Stdout, job)
	}
	jobs, err := c.Jobs()
	if err != nil {
		return err
	}
	return printJSON(os.Stdout, jobs)
}

// runResults lists stored result envelopes.
func runResults(args []string) error {
	fs := flag.NewFlagSet("gpusim results", flag.ExitOnError)
	server := serverFlag(fs)
	workload := fs.String("workload", "", "filter to one workload")
	key := fs.String("key", "", "fetch one exact result key")
	fs.Parse(args)
	c := service.NewClient(*server)
	if *key != "" {
		res, err := c.Result(*key)
		if err != nil {
			return err
		}
		return printJSON(os.Stdout, res)
	}
	list, err := c.Results(*workload)
	if err != nil {
		return err
	}
	return printJSON(os.Stdout, list)
}

// runCompare fetches the named keys side by side.
func runCompare(args []string) error {
	fs := flag.NewFlagSet("gpusim compare", flag.ExitOnError)
	server := serverFlag(fs)
	fs.Parse(args)
	if fs.NArg() < 2 {
		return fmt.Errorf("compare needs at least two result keys")
	}
	c := service.NewClient(*server)
	list, err := c.Compare(fs.Args()...)
	if err != nil {
		return err
	}
	return printJSON(os.Stdout, list)
}

// runRecommend asks the server for the best stored configuration for a
// workload.
func runRecommend(args []string) error {
	fs := flag.NewFlagSet("gpusim recommend", flag.ExitOnError)
	server := serverFlag(fs)
	workload := fs.String("workload", "", "workload to optimise for (required)")
	metric := fs.String("metric", "cycles", "cycles|ipc|tlbmissrate")
	fs.Parse(args)
	if *workload == "" {
		return fmt.Errorf("recommend needs -workload")
	}
	c := service.NewClient(*server)
	res, val, err := c.Best(*workload, *metric)
	if err != nil {
		return err
	}
	return printJSON(os.Stdout, map[string]any{"metric": *metric, "value": val, "result": res})
}
