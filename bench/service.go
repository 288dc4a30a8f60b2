package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gpummu/internal/campaign"
	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/gpu"
	"gpummu/internal/service"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

// The open loop: a lo step then a hi step of Poisson job arrivals, plus a
// reader at a fixed rate throughout. No recorded gpusimd traffic exists, so
// the mix is assumed. Its submissions take the two shapes the repository's
// client, gpusim submit, sends: a campaign file (-campaign) and an ad-hoc
// workload list (-workload a[,b] -size -machine -seed). Picks are uniform;
// which share of jobs the store can serve follows from the universe sizes
// below and is reported as service.store_hit_frac.
const (
	loRate   = 40.0 // jobs/s
	hiRate   = 80.0 // jobs/s; at 120 a slowed 2-CPU host backs up
	readRate = 20.0 // reads/s
	// campaignShare is the assumed share of arrivals that submit a campaign.
	campaignShare = 0.25
	// adhocSeeds is the dataset-seed dimension of a step's ad-hoc universe;
	// campaign jobs use the first campaignSeeds of those seeds.
	adhocSeeds    = 8
	campaignSeeds = 2
	// pollEvery is how often a job's state is polled. gpusim submit polls
	// every 200 ms, but a job served from the store finishes in a few
	// milliseconds, so at 200 ms the benchmark would time the poll interval
	// rather than the server. The price is more poll traffic than a real
	// client sends (service.polls_per_job).
	pollEvery = 2 * time.Millisecond
	// resimulated is how many served results are re-simulated in-process.
	resimulated = 3
)

// campaignFiles are the example campaigns jobs submit, each with its
// workloads' dataset seed set to one of the step's seeds. The other
// examples are left out: paper-sweep and sampled-sweep run at size small
// and would take over the host, and trace-replay names a trace file by a
// path relative to the server's working directory.
var campaignFiles = []string{"fig2-tiny", "mmu-sweep", "checkpoint-sweep"}

// adhocMachines are the machine presets ad-hoc jobs name.
var adhocMachines = []string{"small", "baseline"}

// probeWorkloads are submitted one at a time once the open loop has
// drained, at size small with the augmented MMU. They run for about a
// second each, long enough to measure the server's simulation speed,
// which the loop's ~10 ms simulations are too short and too contended for.
var probeWorkloads = []string{"bfs", "memcached"}

func probeSize(o options) workloads.Size {
	if o.smoke {
		return workloads.SizeTiny
	}
	return workloads.SizeSmall
}

var stepNames = []string{"lo", "hi"}

func serviceParams(o options) map[string]any {
	return map[string]any{
		"rates_jobs_per_s": []float64{loRate, hiRate}, "step_s": float64(o.seconds) / 2,
		"reads_per_s": readRate, "campaign_share": campaignShare, "campaign_files": campaignFiles,
		"adhoc_machines": adhocMachines, "adhoc_seeds": adhocSeeds, "campaign_seeds": campaignSeeds,
		"picks": "uniform", "size": "tiny", "poll_ms": pollEvery.Milliseconds(),
		"max_conns": runtime.NumCPU(), "loop": "open, one process",
		"probes": probeWorkloads, "probe_size": probeSize(o).String(),
	}
}

// jobSpec is one submission: an example campaign at a dataset seed, or an
// ad-hoc workload list on a machine preset.
type jobSpec struct {
	Campaign  string // example campaign name; "" for an ad-hoc job
	Workloads []string
	Machine   string
	Size      workloads.Size
	Seed      uint64
	Set       map[string]any // hardware overrides (the probes only)
}

func (s jobSpec) label() string {
	if s.Campaign != "" {
		return fmt.Sprintf("campaign:%s@%d", s.Campaign, s.Seed)
	}
	return runLabel(strings.Join(s.Workloads, "+"), s)
}

// runLabel names one simulation of an ad-hoc job.
func runLabel(workload string, s jobSpec) string {
	if len(s.Set) > 0 {
		return fmt.Sprintf("probe:%s/%s@%d", workload, s.Size, s.Seed)
	}
	return fmt.Sprintf("%s/%s/%s@%d", workload, s.Size, s.Machine, s.Seed)
}

func (s jobSpec) request(docs map[string]string) service.SubmitRequest {
	if s.Campaign != "" {
		return service.SubmitRequest{Campaign: docs[s.label()]}
	}
	return service.SubmitRequest{Workloads: s.Workloads, Size: s.Size.String(), Seed: s.Seed, Machine: s.Machine, Set: s.Set}
}

// machine is the hardware the server runs an ad-hoc job on, built the way
// the server builds it.
func (s jobSpec) machine() (config.Hardware, error) {
	c, err := campaign.NewAdhoc("", s.Workloads, s.Size.String(), s.Seed, s.Machine, s.Set, campaign.RunOptions{})
	if err != nil {
		return config.Hardware{}, err
	}
	return c.MachineConfig()
}

// augmentedSet asks for the paper's augmented MMU through machine
// overrides.
func augmentedSet() map[string]any {
	m := config.AugmentedMMU()
	b, i := strconv.FormatBool, strconv.Itoa
	return map[string]any{
		"MMU.Enabled": b(m.Enabled), "MMU.Entries": i(m.Entries), "MMU.Assoc": i(m.Assoc),
		"MMU.Ports": i(m.Ports), "MMU.NumPTWs": i(m.NumPTWs), "MMU.MSHRs": i(m.MSHRs),
		"MMU.WalkConcurrency": i(m.WalkConcurrency), "MMU.HitsUnderMiss": b(m.HitsUnderMiss),
		"MMU.CacheOverlap": b(m.CacheOverlap), "MMU.PTWSched": b(m.PTWSched),
	}
}

// universe lists the submissions step draws from, its nCamp campaign
// jobs first; steps use disjoint dataset seeds, so both start cold.
func universe(seed uint64, step int) (u []jobSpec, nCamp int) {
	seedOf := func(k int) uint64 { return datasetSeed(seed, step*adhocSeeds+k) }
	for _, f := range campaignFiles {
		for k := 0; k < campaignSeeds; k++ {
			u = append(u, jobSpec{Campaign: f, Size: workloads.SizeTiny, Seed: seedOf(k)})
		}
	}
	nCamp = len(u)
	// Every single workload and every pair, as gpusim submit -workload
	// takes a comma-separated list.
	names := workloads.PaperSet()
	var sets [][]string
	for i, a := range names {
		sets = append(sets, []string{a})
		for _, b := range names[i+1:] {
			sets = append(sets, []string{a, b})
		}
	}
	for _, ws := range sets {
		for _, m := range adhocMachines {
			for k := 0; k < adhocSeeds; k++ {
				u = append(u, jobSpec{Workloads: ws, Machine: m, Size: workloads.SizeTiny, Seed: seedOf(k)})
			}
		}
	}
	return u, nCamp
}

// arrival is one job of the open loop: when it is due, counted from the
// start of the measured phase, and which spec of its step's universe it
// asks for.
type arrival struct {
	At   time.Duration
	Step int
	Spec int
}

// schedule draws the open loop from seed alone: per step, Poisson arrivals
// at the step's rate, each a campaign job with probability campaignShare
// and an ad-hoc job otherwise, picked uniformly within its kind from a
// universe whose first nCamp specs are the campaigns.
func schedule(seed uint64, step time.Duration, rates []float64, nCamp, nSpecs int) []arrival {
	r := rand.New(rand.NewSource(int64(seed)))
	var out []arrival
	for s, rate := range rates {
		base := time.Duration(s) * step
		for t := r.ExpFloat64() / rate; t < step.Seconds(); t += r.ExpFloat64() / rate {
			spec := nCamp + r.Intn(nSpecs-nCamp)
			if r.Float64() < campaignShare {
				spec = r.Intn(nCamp)
			}
			out = append(out, arrival{At: base + time.Duration(t*float64(time.Second)), Step: s, Spec: spec})
		}
	}
	return out
}

// jobResult is what one job of the loop saw.
type jobResult struct {
	arrival
	spec      jobSpec
	latency   time.Duration // due time to report bytes
	finished  time.Duration // completion, counted like At
	job       *service.Job
	report    []byte            // campaign jobs: the rendered report
	envelopes []*service.Result // ad-hoc jobs: one result per workload
	rejected  bool
	err       error
}

type readResult struct {
	step    int
	latency time.Duration
	err     error
}

// servedRun is one simulation result an ad-hoc job reported.
type servedRun struct {
	workload string
	spec     jobSpec
	cfg      config.Hardware
	env      *service.Result
	digest   string
}

// svcRun is one measured phase against a running gpusimd.
type svcRun struct {
	e         *env
	c         *service.Client
	hc        *http.Client
	base      string
	universes [][]jobSpec
	docs      map[string]string // campaign label -> submitted document
	camps     map[string]*campaign.Campaign
	planLen   map[string]int // campaign name -> unique runs it plans
	t0        time.Time

	mu    sync.Mutex
	known []*service.Result // served envelopes, in completion order
}

// prepareCampaigns loads the example campaigns, emits each at every
// dataset seed the universes use, and plans each once to learn how many
// runs a job of it must report.
func (s *svcRun) prepareCampaigns() error {
	s.docs, s.camps, s.planLen = map[string]string{}, map[string]*campaign.Campaign{}, map[string]int{}
	for _, u := range s.universes {
		for _, spec := range u {
			if spec.Campaign == "" {
				continue
			}
			c, err := campaign.Load(filepath.Join(s.e.root, "examples", "campaigns", spec.Campaign+".yaml"))
			if err != nil {
				return err
			}
			c.Workloads.Seed = spec.Seed
			s.docs[spec.label()] = string(c.Emit())
			s.camps[spec.label()] = c
			if _, ok := s.planLen[spec.Campaign]; ok {
				continue
			}
			opt, err := c.HarnessOptions()
			if err != nil {
				return err
			}
			figs, err := c.ExpandFigures()
			if err != nil {
				return err
			}
			s.planLen[spec.Campaign] = experiments.New(io.Discard, opt).PlanFigures(figs).Len()
		}
	}
	return nil
}

func runService(e *env) (*outcome, error) {
	out := newOutcome()
	bin, err := buildServer(e.options)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(e.work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	s := &svcRun{e: e}
	u0, nCamp := universe(e.seed, 0)
	u1, _ := universe(e.seed, 1)
	s.universes = [][]jobSpec{u0, u1}
	if err := s.prepareCampaigns(); err != nil {
		return nil, err
	}

	// Set-up is starting the server until its first healthy reply, done
	// several times; the last server stays up for the measured phase.
	var setups []float64
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		sp := e.tr.begin(0, "gpusimd.start", fmt.Sprintf("setup-%d", i))
		sv, took, err := startServer(bin, tmp)
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRepeats-1 {
			if err := sv.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = sv
	}
	defer srv.stop()

	nconn := runtime.NumCPU()
	rec := &httpTimes{}
	s.hc = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &timedTransport{rec: rec, base: &http.Transport{
			MaxConnsPerHost: nconn, MaxIdleConnsPerHost: nconn, IdleConnTimeout: 30 * time.Second,
		}},
	}
	defer s.hc.CloseIdleConnections()
	s.c = service.NewClient(srv.base)
	s.c.HTTP = s.hc
	s.base = srv.base

	step := time.Duration(float64(e.seconds) / 2 * float64(time.Second))
	arrivals := schedule(e.seed, step, []float64{loRate, hiRate}, nCamp, len(u0))
	cpu0, err := procCPUSeconds(srv.pid())
	if err != nil {
		return nil, err
	}

	// The drain budget keeps a stalled server from holding the run past
	// its time limit.
	s.t0 = time.Now().Add(20 * time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), s.t0.Add(2*step+60*time.Second))
	defer cancel()
	stopHealth := make(chan struct{})
	var health healthSamples
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { defer bg.Done(); health = s.sampleHealth(stopHealth) }()
	var reads []readResult
	bg.Add(1)
	go func() { defer bg.Done(); reads = s.readLoop(2 * step) }()

	jobs := make([]jobResult, len(arrivals))
	var lates []float64
	var wg sync.WaitGroup
	for i, a := range arrivals {
		due := s.t0.Add(a.At)
		time.Sleep(time.Until(due))
		lates = append(lates, float64(time.Since(due))/1e6)
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			jobs[i] = s.job(ctx, fmt.Sprintf("job%d", i), a, s.universes[a.Step][a.Spec], due)
		}(i, a, due)
	}
	wg.Wait()
	close(stopHealth)
	bg.Wait()

	cpu1, err := procCPUSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	// Peak memory is the open loop's; the probes' larger simulations would
	// otherwise set it.
	hwm, err := procHWMMB(srv.pid())
	if err != nil {
		return nil, err
	}

	// Checks.
	var jobFailures, readFailures []string
	var hits []float64
	byStep := map[string][]float64{}
	var total, simulated, fromStore, coalesced, rejected int
	backlog := make([]float64, len(stepNames))
	served := map[string]servedRun{}  // ad-hoc runs by label
	reports := map[string]jobResult{} // campaign jobs by label
	for _, j := range jobs {
		out.attempted++
		if j.err == nil {
			j.err = s.verify(j, served, reports)
		}
		if j.err != nil {
			out.failed++
			jobFailures = append(jobFailures, j.err.Error())
			if j.rejected {
				rejected++
			}
			backlog[j.Step]++
			continue
		}
		if j.finished > time.Duration(j.Step+1)*step {
			backlog[j.Step]++
		}
		ms := float64(j.latency) / 1e6
		st := stepNames[j.Step]
		byStep["all."+st] = append(byStep["all."+st], ms)
		total += j.job.Total
		simulated += j.job.Simulated
		fromStore += j.job.FromStore
		coalesced += j.job.Coalesced
		kind := "adhoc"
		if j.spec.Campaign != "" {
			kind = "campaign"
		}
		if j.job.Simulated > 0 {
			byStep["miss."+st] = append(byStep["miss."+st], ms)
			byStep["miss."+kind] = append(byStep["miss."+kind], ms)
		} else {
			byStep["hit."+st] = append(byStep["hit."+st], ms)
			byStep["hit."+kind] = append(byStep["hit."+kind], ms)
			hits = append(hits, ms)
		}
	}
	for _, r := range reads {
		out.attempted++
		if r.err != nil {
			out.failed++
			readFailures = append(readFailures, r.err.Error())
			continue
		}
		st := stepNames[r.step]
		byStep["read."+st] = append(byStep["read."+st], float64(r.latency)/1e6)
	}
	out.expect("every job finished done, with total = simulated + fromStore + coalesced and its own report",
		len(jobFailures) == 0, "%d failed: %s", len(jobFailures), firstFew(jobFailures))
	out.expect("every read returned 2xx", len(readFailures) == 0, "%d failed: %s", len(readFailures), firstFew(readFailures))
	for label, r := range served {
		out.digests[label] = r.digest
	}
	for label, j := range reports {
		out.digests[label] = sha(j.report)
	}
	mismatches, checked, err := s.resimulate(served)
	if err != nil {
		return nil, err
	}
	out.expect(fmt.Sprintf("%d served results re-simulated in-process match", resimulated),
		len(mismatches) == 0 && checked == min(resimulated, len(served)), "%d checked, mismatches: %v", checked, mismatches)
	rendered, err := s.rerender(reports)
	if err != nil {
		return nil, err
	}
	out.expect("a served campaign report equals the same campaign rendered in-process", rendered == "",
		"%s", rendered)

	var probeRates []float64
	var probeFailures []string
	for i, w := range probeWorkloads {
		// The seeds lie past both steps' universes.
		spec := jobSpec{Workloads: []string{w}, Machine: "baseline", Size: probeSize(e.options),
			Seed: datasetSeed(e.seed, 2*adhocSeeds+i), Set: augmentedSet()}
		out.attempted++
		r := s.job(ctx, fmt.Sprintf("probe%d", i), arrival{}, spec, time.Now())
		if r.err == nil {
			r.err = s.verify(r, served, reports)
		}
		if r.err == nil && r.job.Simulated == 0 {
			r.err = fmt.Errorf("%s: probe served without simulating", spec.label())
		}
		if r.err != nil {
			out.failed++
			probeFailures = append(probeFailures, r.err.Error())
			continue
		}
		env := r.envelopes[0]
		probeRates = append(probeRates, float64(env.Cycles)/(env.WallMS/1000))
		out.digests[spec.label()] = served[spec.label()].digest
	}
	out.expect("every probe job was simulated and reported", len(probeFailures) == 0, "%s", firstFew(probeFailures))
	storeMB := dirMB(srv.dir)

	// End to end. Miss latencies depend on which specs a seed draws and
	// on contention, and do not repeat within a quarter; they stay per
	// layer, and the probes carry simulation speed.
	out.setMedian("latency_ms", hits)
	out.set("sim_cycles_per_s", geomean(probeRates), len(probeRates))
	out.setMedian("setup_s", setups)
	out.set("peak_rss_mb", hwm, 0)

	// Per layer.
	for i, st := range stepNames {
		out.setMedian("service.job_hit_p50_ms."+st, byStep["hit."+st])
		out.setMedian("service.job_miss_p50_ms."+st, byStep["miss."+st])
		out.setMedian("service.read_p50_ms."+st, byStep["read."+st])
		out.setTail("service.job_p95_ms."+st, byStep["all."+st], 0.95)
		out.set("service.backlog_end."+st, backlog[i], 0)
	}
	out.setMedian("service.campaign_hit_p50_ms", byStep["hit.campaign"])
	out.setMedian("service.campaign_miss_p50_ms", byStep["miss.campaign"])
	out.setTail("service.job_p99_ms.hi", byStep["all.hi"], 0.99)
	out.setTail("service.gen_late_ms_p95", lates, 0.95)
	out.setMedian("service.submit_ms_p50", rec.get("submit"))
	out.setMedian("service.poll_ms_p50", rec.get("poll"))
	out.setMedian("service.report_ms_p50", rec.get("report"))
	out.set("service.polls_per_job", ratio(float64(len(rec.get("poll"))), float64(len(jobs))), len(jobs))
	out.set("service.store_hit_frac", ratio(float64(fromStore), float64(total)), len(jobs))
	out.set("service.coalesced_frac", ratio(float64(coalesced), float64(total)), len(jobs))
	out.set("service.simulated", float64(simulated), 0)
	out.set("service.rejected", float64(rejected), 0)
	out.set("service.queue_depth_mean", health.meanQueued(), len(health.queued))
	out.set("service.busy_slots_mean", health.meanBusy(), len(health.busy))
	out.set("service.server_cpu_ms_per_job", ratio((cpu1-cpu0)*1000, float64(len(jobs))), len(jobs))
	out.set("service.store_mb", storeMB, 0)
	var sims []*stats.Sim
	for _, label := range sortedKeys(served) {
		if len(served[label].spec.Set) == 0 {
			sims = append(sims, served[label].env.Stats)
		}
	}
	addSimStats(out, sims)
	return out, nil
}

// job submits one spec, waits for it and fetches its report.
func (s *svcRun) job(ctx context.Context, req string, a arrival, spec jobSpec, due time.Time) jobResult {
	r := jobResult{arrival: a, spec: spec}
	root := s.e.tr.begin(0, "job", req)
	defer s.e.tr.end(root)

	sp := s.e.tr.begin(root, "service.Submit", req)
	j, err := s.c.Submit(spec.request(s.docs))
	s.e.tr.end(sp)
	if err != nil {
		var full *service.QueueFullError
		r.rejected = errors.As(err, &full)
		r.err = fmt.Errorf("%s: submit: %v", spec.label(), err)
		return r
	}
	sp = s.e.tr.begin(root, "service.Wait", req)
	fin, err := s.c.Wait(ctx, j.ID, pollEvery)
	s.e.tr.end(sp)
	if err != nil {
		r.err = fmt.Errorf("%s: wait %s: %v", spec.label(), j.ID, err)
		return r
	}
	if fin.State != service.StateDone {
		r.err = fmt.Errorf("%s: job %s ended %s: %s", spec.label(), j.ID, fin.State, fin.Error)
		return r
	}
	sp = s.e.tr.begin(root, "service.Report", req)
	body, err := s.c.Report(j.ID)
	s.e.tr.end(sp)
	r.latency = time.Since(due)
	r.finished = time.Since(s.t0)
	if err != nil {
		r.err = fmt.Errorf("%s: report %s: %v", spec.label(), j.ID, err)
		return r
	}
	r.job = fin
	if spec.Campaign != "" {
		r.report = body
		return r
	}
	if err := json.Unmarshal(body, &r.envelopes); err != nil {
		r.err = fmt.Errorf("%s: job %s report: %v", spec.label(), j.ID, err)
		return r
	}
	s.mu.Lock()
	for _, env := range r.envelopes {
		if env.Error == "" {
			s.known = append(s.known, env)
		}
	}
	s.mu.Unlock()
	return r
}

// verify checks a finished job against what its submission asked for and
// files what it served: each ad-hoc run under its label, and each campaign
// report under its campaign's label. Two jobs serving the same label must
// serve identical results.
func (s *svcRun) verify(j jobResult, served map[string]servedRun, reports map[string]jobResult) error {
	spec, fin := j.spec, j.job
	if fin.Total != fin.Simulated+fin.FromStore+fin.Coalesced {
		return fmt.Errorf("%s: job %s: total %d != simulated %d + fromStore %d + coalesced %d",
			spec.label(), fin.ID, fin.Total, fin.Simulated, fin.FromStore, fin.Coalesced)
	}
	if spec.Campaign != "" {
		if want := s.planLen[spec.Campaign]; fin.Total != want {
			return fmt.Errorf("%s: job %s ran %d runs, the campaign plans %d", spec.label(), fin.ID, fin.Total, want)
		}
		if prev, ok := reports[spec.label()]; ok && !bytes.Equal(prev.report, j.report) {
			return fmt.Errorf("%s: jobs %s and %s rendered different reports", spec.label(), prev.job.ID, fin.ID)
		}
		reports[spec.label()] = j
		return nil
	}
	cfg, err := spec.machine()
	if err != nil {
		return fmt.Errorf("%s: %v", spec.label(), err)
	}
	if len(j.envelopes) != len(spec.Workloads) || fin.Total != len(spec.Workloads) {
		return fmt.Errorf("%s: job %s reported %d results of %d runs for %d workloads",
			spec.label(), fin.ID, len(j.envelopes), fin.Total, len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		var env *service.Result
		for _, x := range j.envelopes {
			if x.Workload == w {
				env = x
			}
		}
		key := service.Key(w, spec.Size, spec.Seed, cfg, gpu.SamplePlan{})
		if env == nil || env.Error != "" || env.Stats == nil || env.Key != key {
			return fmt.Errorf("%s: job %s does not report a successful result under %s's own key", spec.label(), fin.ID, w)
		}
		d, err := digest(env.Stats)
		if err != nil {
			return err
		}
		label := runLabel(w, spec)
		if prev, ok := served[label]; ok && prev.digest != d {
			return fmt.Errorf("%s: two jobs served different statistics", label)
		}
		served[label] = servedRun{workload: w, spec: spec, cfg: cfg, env: env, digest: d}
	}
	return nil
}

// readLoop issues one read every 1/readRate seconds for d, rotating
// through the results, compare and best queries, each timed from its due
// time. Queries name only results the server has already served.
func (s *svcRun) readLoop(d time.Duration) []readResult {
	period := time.Duration(float64(time.Second) / readRate)
	n := int(d / period)
	res := make([]readResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := s.t0.Add(time.Duration(i) * period)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			res[i] = s.read(i, due, d/2)
		}(i, due)
	}
	wg.Wait()
	return res
}

func (s *svcRun) read(i int, due time.Time, step time.Duration) readResult {
	r := readResult{step: min(int(due.Sub(s.t0)/step), len(stepNames)-1)}
	req := fmt.Sprintf("read%d", i)
	s.mu.Lock()
	known := append([]*service.Result(nil), s.known...)
	s.mu.Unlock()
	names := workloads.PaperSet()
	var err error
	switch {
	case i%3 == 1 && len(known) >= 2:
		sp := s.e.tr.begin(0, "service.Compare", req)
		_, err = s.c.Compare(known[i%len(known)].Key, known[(i+1)%len(known)].Key)
		s.e.tr.end(sp)
	case i%3 == 2 && len(known) >= 1:
		sp := s.e.tr.begin(0, "service.Best", req)
		_, _, err = s.c.Best(known[i%len(known)].Workload, "cycles")
		s.e.tr.end(sp)
	default:
		sp := s.e.tr.begin(0, "service.Results", req)
		_, err = s.c.Results(names[(i/3)%len(names)])
		s.e.tr.end(sp)
	}
	r.latency = time.Since(due)
	if err != nil {
		r.err = fmt.Errorf("read %d: %v", i, err)
	}
	return r
}

type healthSamples struct{ queued, busy []float64 }

func (h healthSamples) meanQueued() float64 { return ratio(sum(h.queued), float64(len(h.queued))) }
func (h healthSamples) meanBusy() float64   { return ratio(sum(h.busy), float64(len(h.busy))) }

// sampleHealth polls /v1/healthz every 100 ms until stop is closed.
func (s *svcRun) sampleHealth(stop <-chan struct{}) healthSamples {
	var h healthSamples
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return h
		case <-t.C:
		}
		resp, err := s.hc.Get(s.base + "/v1/healthz")
		if err != nil {
			continue
		}
		var body struct {
			Queued    int `json:"queued"`
			Scheduler struct {
				BusySlots int `json:"busySlots"`
			} `json:"scheduler"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err == nil {
			h.queued = append(h.queued, float64(body.Queued))
			h.busy = append(h.busy, float64(body.Scheduler.BusySlots))
		}
	}
}

// pickBySeed returns up to n of the labels, chosen at random from the
// benchmark seed.
func (s *svcRun) pickBySeed(labels []string, n int) []string {
	rand.New(rand.NewSource(int64(s.e.seed))).Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	return labels[:min(n, len(labels))]
}

// resimulate runs served ad-hoc results again in-process, which must
// reproduce their cycles and statistics.
func (s *svcRun) resimulate(served map[string]servedRun) ([]string, int, error) {
	var mismatches []string
	checked := 0
	for _, label := range s.pickBySeed(sortedKeys(served), resimulated) {
		r := served[label]
		rec, err := simulate(s.e, r.cfg, r.spec.Size, r.workload, r.spec.Seed)
		if err != nil {
			mismatches = append(mismatches, err.Error())
			continue
		}
		checked++
		if rec.st.Cycles != r.env.Cycles || rec.digest != r.digest {
			mismatches = append(mismatches, fmt.Sprintf("%s: served %d cycles, in-process %d", label, r.env.Cycles, rec.st.Cycles))
		}
	}
	return mismatches, checked, nil
}

// rerender renders one served campaign in-process, the way the experiments
// command would, and returns a description of any difference from the
// served report ("" when they are byte-identical).
func (s *svcRun) rerender(reports map[string]jobResult) (string, error) {
	for _, label := range s.pickBySeed(sortedKeys(reports), 1) {
		c := s.camps[label]
		opt, err := c.HarnessOptions()
		if err != nil {
			return "", err
		}
		figs, err := c.ExpandFigures()
		if err != nil {
			return "", err
		}
		sp := s.e.tr.begin(0, "experiments.RunFigures", "rerender:"+label)
		var buf bytes.Buffer
		err = experiments.RunFigures(experiments.New(&buf, opt), figs)
		s.e.tr.end(sp)
		if err != nil {
			return fmt.Sprintf("%s: rendering in-process: %v", label, err), nil
		}
		if !bytes.Equal(buf.Bytes(), reports[label].report) {
			return fmt.Sprintf("%s: served report differs from the in-process one", label), nil
		}
		return "", nil
	}
	return "no campaign job was served", nil
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func firstFew(xs []string) string {
	if len(xs) > 3 {
		return strings.Join(xs[:3], "; ") + "; ..."
	}
	return strings.Join(xs, "; ")
}

// httpTimes collects round-trip times by request class.
type httpTimes struct {
	mu sync.Mutex
	ms map[string][]float64
}

func (h *httpTimes) add(class string, d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ms == nil {
		h.ms = map[string][]float64{}
	}
	h.ms[class] = append(h.ms[class], float64(d)/1e6)
}

func (h *httpTimes) get(class string) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.ms[class]...)
}

// timedTransport times every request to its response headers and files
// it under the /v1 call it makes.
type timedTransport struct {
	base http.RoundTripper
	rec  *httpTimes
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	t.rec.add(requestClass(r), time.Since(start))
	return resp, err
}

func requestClass(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "submit"
	case strings.HasSuffix(p, "/report"):
		return "report"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "poll"
	case p == "/v1/healthz":
		return "health"
	}
	return "read"
}

// server is a running gpusimd child.
type server struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	stderr bytes.Buffer
	exited chan struct{}
	err    error
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// buildServer compiles ./cmd/gpusimd into the work directory.
func buildServer(o options) (string, error) {
	bin, err := filepath.Abs(filepath.Join(o.work, "gpusimd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gpusimd")
	cmd.Dir = o.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building gpusimd: %v\n%s", err, out)
	}
	return bin, nil
}

// startServer starts gpusimd on a free port with a fresh durable store
// and returns once /v1/healthz answers 200, with the time that took.
func startServer(bin, tmp string) (*server, time.Duration, error) {
	dir, err := os.MkdirTemp(tmp, "gpusimd-")
	if err != nil {
		return nil, 0, err
	}
	addrFile := filepath.Join(dir, "addr")
	s := &server{dir: dir, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-store", filepath.Join(dir, "state"), "-addrfile", addrFile)
	s.cmd.Stderr = &s.stderr
	// Should the harness itself be killed, the server is told to stop too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("starting gpusimd: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for limit := start.Add(30 * time.Second); time.Now().Before(limit); time.Sleep(time.Millisecond) {
		select {
		case <-s.exited:
			os.RemoveAll(dir)
			return nil, 0, fmt.Errorf("gpusimd exited during start-up: %v\n%s", s.err, s.stderr.String())
		default:
		}
		if s.base == "" {
			b, err := os.ReadFile(addrFile)
			if err != nil || !bytes.HasSuffix(b, []byte("\n")) {
				continue
			}
			s.base = strings.TrimSpace(string(b))
		}
		resp, err := probe.Get(s.base + "/v1/healthz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			took := time.Since(start)
			probe.CloseIdleConnections()
			return s, took, nil
		}
	}
	s.stop()
	return nil, 0, fmt.Errorf("gpusimd did not become healthy within 30s")
}

// stop shuts the server down, waits for it to exit and removes its store.
func (s *server) stop() error {
	defer os.RemoveAll(s.dir)
	select {
	case <-s.exited:
		return nil
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return nil
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("gpusimd ignored SIGTERM and was killed")
	}
}

// procCPUSeconds returns a process's user plus system CPU time.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15, in clock ticks.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return (ut + st) / ticksPerSecond, nil
}

// procHWMMB returns a process's peak resident set size.
func procHWMMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// dirMB returns the total size of the files under dir.
func dirMB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
