// The /v1 HTTP surface and the job runners behind it. A Server owns a
// durable Store, a journalled Manifest, a shared scheduler, and -jobs
// runner goroutines: POST /v1/jobs validates the submission into a
// canonical campaign document and enqueues it; a runner expands the
// campaign through the existing campaign → experiments pipeline with a
// store-backed Results implementation, so every simulation the store
// already holds is served instead of recomputed — across jobs, across
// clients, and across server restarts. Jobs run concurrently, but every
// simulation they start is gated on one global slot budget and identical
// in-flight specs are coalesced across jobs (scheduler.go), so reports
// stay byte-identical to serial execution. Progress ticks fan out to SSE
// subscribers through obs.Funnel without ever blocking a simulation.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpummu/internal/campaign"
	"gpummu/internal/experiments"
	"gpummu/internal/gpu"
	"gpummu/internal/obs"
	"gpummu/internal/workloads"
)

// Options configures a Server.
type Options struct {
	// Dir is the server's state directory (durable store segments, the
	// manifest journal, rendered reports). "" runs fully in memory.
	Dir string
	// Workers is the default -j worker pool for campaigns that leave
	// run.workers unset; 0 defers to GOMAXPROCS.
	Workers int
	// JobTimeout bounds each job's wall clock when the campaign declares no
	// obs.deadline of its own; an overrun fails the job with state
	// "timeout". The budget is enforced even while the job is starved of
	// simulation slots by other in-flight jobs. 0 leaves jobs unbounded.
	JobTimeout time.Duration
	// QueueDepth bounds the pending-job queue (default 256). A full queue
	// rejects submissions with 503 plus a Retry-After header instead of
	// blocking the handler.
	QueueDepth int
	// Jobs is how many jobs execute concurrently (the -jobs flag); 0 picks
	// a GOMAXPROCS-aware default (capped at 4). Whatever the value, total
	// concurrent simulations never exceed the slot budget below.
	Jobs int
	// Slots is the global simulation-slot budget shared by every in-flight
	// job, so jobs × run.workers never oversubscribes the host; 0 defers
	// to the resolved Workers value. Reports stay byte-identical for any
	// Jobs/Slots combination.
	Slots int

	// clk substitutes the scheduler's time source (tests); nil uses the
	// real clock.
	clk clock
}

// jobs resolves the concurrent-job count.
func (o Options) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// slots resolves the global simulation-slot budget.
func (o Options) slots() int {
	if o.Slots > 0 {
		return o.Slots
	}
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Server is the gpusimd job server: an http.Handler plus -jobs runner
// goroutines executing queued jobs concurrently. Each job parallelises
// internally across its campaign's -j workers, but every simulation any
// job starts is gated on one shared slot budget, and identical in-flight
// specs are coalesced across jobs (scheduler.go).
type Server struct {
	opt      Options
	store    Store
	manifest *Manifest
	funnel   *obs.Funnel
	sched    *scheduler
	clock    clock
	mux      *http.ServeMux
	queue    chan string
	done     chan struct{}
	wg       sync.WaitGroup

	mu      sync.Mutex
	reports map[string][]byte // memory-mode reports (Dir == "")
}

// NewServer opens the server state in opt.Dir (creating it if needed),
// requeues any jobs a previous process left unfinished — in their
// original submission order — and starts the runner pool. Close drains
// everything.
func NewServer(opt Options) (*Server, error) {
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 256
	}
	var store Store
	var err error
	if opt.Dir == "" {
		store = NewMemStore()
	} else if store, err = OpenFileStore(filepath.Join(opt.Dir, "store")); err != nil {
		return nil, err
	}
	manifest, err := OpenManifest(opt.Dir)
	if err != nil {
		store.Close()
		return nil, err
	}
	clk := opt.clk
	if clk == nil {
		clk = realClock{}
	}
	// The queue must hold every interrupted job a previous process left
	// behind: dropping one on requeue would strand it pending forever.
	resumable := manifest.Resumable()
	depth := opt.QueueDepth
	if len(resumable) > depth {
		depth = len(resumable)
	}
	s := &Server{
		opt:      opt,
		store:    store,
		manifest: manifest,
		funnel:   obs.NewFunnel(),
		sched:    newScheduler(opt.slots()),
		clock:    clk,
		queue:    make(chan string, depth),
		done:     make(chan struct{}),
		reports:  make(map[string][]byte),
	}
	s.routes()
	// Requeue what the previous process never finished, oldest submission
	// first (Resumable is ordered by job ID): the durable store already
	// holds every simulation those jobs completed, so the re-run only pays
	// for the remainder.
	for _, id := range resumable {
		s.queue <- id
	}
	for i := 0; i < opt.jobs(); i++ {
		s.wg.Add(1)
		go s.runLoop()
	}
	return s, nil
}

// Close gracefully drains the runner pool — each runner finishes the job
// it is executing, queued jobs stay pending for the next process — and
// releases the store and manifest.
func (s *Server) Close() error {
	close(s.done)
	s.wg.Wait()
	err := s.store.Close()
	if merr := s.manifest.Close(); err == nil {
		err = merr
	}
	return err
}

// Store exposes the server's durable result store (tests, tools).
func (s *Server) Store() Store { return s.store }

// Manifest exposes the server's run manifest (tests, tools).
func (s *Server) Manifest() *Manifest { return s.manifest }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SubmitRequest is the POST /v1/jobs body: either a full campaign document
// (Campaign, YAML or JSON) or job-shaped fields the server wraps into an
// ad-hoc campaign. The two forms are mutually exclusive.
type SubmitRequest struct {
	// Campaign is a complete campaign document (the same text a -campaign
	// file holds).
	Campaign string `json:"campaign,omitempty"`

	// The ad-hoc form: workloads plus machine, mirroring gpusim flags.
	Name      string         `json:"name,omitempty"`
	Workloads []string       `json:"workloads,omitempty"`
	Size      string         `json:"size,omitempty"`
	Seed      uint64         `json:"seed,omitempty"`
	Machine   string         `json:"machine,omitempty"` // preset: baseline|small
	Set       map[string]any `json:"set,omitempty"`     // dotted config.Hardware overrides

	// Run options (both forms; the ad-hoc form's run block).
	Workers    int    `json:"workers,omitempty"`
	Checkpoint bool   `json:"checkpoint,omitempty"`
	Sampling   string `json:"sampling,omitempty"` // warmup,detail,fastforward[,warm]
}

// campaign builds the canonical campaign a submission describes.
func (r *SubmitRequest) campaign() (*campaign.Campaign, string, error) {
	adhoc := len(r.Workloads) > 0 || r.Machine != "" || len(r.Set) > 0 ||
		r.Size != "" || r.Seed != 0 || r.Name != ""
	if r.Campaign != "" {
		if adhoc {
			return nil, "", fmt.Errorf("campaign and workload/machine fields are mutually exclusive")
		}
		c, err := campaign.Parse([]byte(r.Campaign))
		if err != nil {
			return nil, "", err
		}
		return c, "campaign", nil
	}
	// The ad-hoc form must name its workloads: defaulting an empty
	// submission to the paper's six would run a large job by accident.
	if len(r.Workloads) == 0 {
		return nil, "", fmt.Errorf("nothing to run: give a campaign document or a workloads list")
	}
	run := campaign.RunOptions{Workers: r.Workers, Checkpoint: r.Checkpoint}
	if r.Sampling != "" {
		p, err := gpu.ParseSamplePlan(r.Sampling)
		if err != nil {
			return nil, "", fmt.Errorf("sampling: %w", err)
		}
		run.Sampling = p
	}
	c, err := campaign.NewAdhoc(r.Name, r.Workloads, r.Size, r.Seed, r.Machine, r.Set, run)
	if err != nil {
		return nil, "", err
	}
	return c, "run", nil
}

// routes installs the /v1 endpoints.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		flights, flightWaiters, busy, slotWaiters := s.sched.stats()
		writeObj(w, http.StatusOK, map[string]any{
			"ok":      true,
			"jobs":    len(s.manifest.Jobs()),
			"results": s.store.Len(),
			"runners": s.opt.jobs(),
			"queued":  len(s.queue),
			"scheduler": map[string]int{
				"slots":         s.opt.slots(),
				"busySlots":     busy,
				"slotWaiters":   slotWaiters,
				"flights":       flights,
				"flightWaiters": flightWaiters,
			},
		})
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeObj(w, http.StatusOK, map[string]any{"jobs": s.manifest.Jobs()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.manifest.Job(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		writeObj(w, http.StatusOK, j)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/results", s.handleResults)
	mux.HandleFunc("GET /v1/compare", s.handleCompare)
	mux.HandleFunc("GET /v1/best", s.handleBest)
	s.mux = mux
}

// handleSubmit validates a submission, journals it as a pending job, and
// enqueues it for the runner.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding submission: %v", err)
		return
	}
	camp, kind, err := req.campaign()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Reports belong to the server's report space, never the campaign's
	// declared path: a client must not steer server-side file writes.
	camp.Output.Report = ""
	job, err := s.manifest.NewJob(kind, camp.Name, string(camp.Emit()))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	select {
	case s.queue <- job.ID:
	default:
		job, _ = s.manifest.Update(job.ID, func(j *Job) {
			j.State = StateFailed
			j.Error = "job queue full"
		})
		// Retry-After tells well-behaved clients when resubmitting is worth
		// trying: one slot turnover is the soonest the queue can drain.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeErr(w, http.StatusServiceUnavailable, "job queue full")
		return
	}
	writeObj(w, http.StatusCreated, job)
}

// retryAfterSeconds is the Retry-After hint on queue-full 503 responses.
const retryAfterSeconds = 1

// handleReport streams a finished job's rendered report.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.manifest.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if j.State != StateDone {
		writeErr(w, http.StatusConflict, "job %s is %s, not done", id, j.State)
		return
	}
	body, err := s.report(j)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(body)
}

// report loads a job's rendered report bytes.
func (s *Server) report(j *Job) ([]byte, error) {
	if s.opt.Dir == "" {
		s.mu.Lock()
		defer s.mu.Unlock()
		body, ok := s.reports[j.ID]
		if !ok {
			return nil, fmt.Errorf("report for %s not found", j.ID)
		}
		return body, nil
	}
	return os.ReadFile(filepath.Join(s.opt.Dir, j.ReportPath))
}

// handleEvents streams a job's lifecycle over SSE: a "state" event per
// manifest transition (including one immediately on subscribe) and a
// "progress" event per simulation tick. The stream ends when the job
// reaches a terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.manifest.Job(id); !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ticks, cancel := s.funnel.Subscribe(256)
	defer cancel()
	// Poll manifest state on a timer rather than wiring another notifier:
	// state changes are rare (a handful per job) and 100ms staleness is
	// invisible next to simulation time.
	poll := time.NewTicker(100 * time.Millisecond)
	defer poll.Stop()

	emit := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	last := ""
	state := func() (terminal bool) {
		j, ok := s.manifest.Job(id)
		if !ok {
			return true
		}
		if j.State != last {
			last = j.State
			if !emit("state", j) {
				return true
			}
		}
		return j.State == StateDone || j.State == StateFailed || j.State == StateTimeout
	}
	if state() {
		return
	}
	prefix := id + "|"
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case t := <-ticks:
			if !strings.HasPrefix(t.Source, prefix) {
				continue
			}
			t.Source = strings.TrimPrefix(t.Source, prefix)
			if !emit("progress", t) {
				return
			}
		case <-poll.C:
			if state() {
				return
			}
		}
	}
}

// handleResults serves stored result envelopes: all of them, one by exact
// ?key, or the subset for one ?workload.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if key := r.URL.Query().Get("key"); key != "" {
		res, ok, err := s.store.Get(key)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if !ok {
			writeErr(w, http.StatusNotFound, "no result for key %q", key)
			return
		}
		writeObj(w, http.StatusOK, res)
		return
	}
	all, err := s.store.List()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if wl := r.URL.Query().Get("workload"); wl != "" {
		kept := all[:0]
		for _, res := range all {
			if res.Workload == wl {
				kept = append(kept, res)
			}
		}
		all = kept
	}
	writeObj(w, http.StatusOK, map[string]any{"results": all})
}

// handleCompare returns the envelopes for the given ?key=... parameters,
// in request order, failing if any is missing — the side-by-side a
// config-A-vs-config-B comparison needs.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	keys := r.URL.Query()["key"]
	if len(keys) < 2 {
		writeErr(w, http.StatusBadRequest, "compare needs at least two key parameters")
		return
	}
	out := make([]*Result, 0, len(keys))
	var missing []string
	for _, k := range keys {
		res, ok, err := s.store.Get(k)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if !ok {
			missing = append(missing, k)
			continue
		}
		out = append(out, res)
	}
	if len(missing) > 0 {
		writeErr(w, http.StatusNotFound, "no result for keys: %s", strings.Join(missing, ", "))
		return
	}
	writeObj(w, http.StatusOK, map[string]any{"results": out})
}

// bestMetrics maps a /v1/best metric name to its ordering: value extracts
// the figure of merit, lower says which direction wins.
var bestMetrics = map[string]struct {
	value func(*Result) float64
	lower bool
}{
	"cycles": {func(r *Result) float64 { return float64(r.Cycles) }, true},
	"ipc": {func(r *Result) float64 {
		if r.Summary == nil || r.Cycles == 0 {
			return 0
		}
		if r.Summary.EstIPC > 0 {
			return r.Summary.EstIPC
		}
		return float64(r.Summary.Instructions) / float64(r.Cycles)
	}, false},
	"tlbmissrate": {func(r *Result) float64 {
		if r.Summary == nil {
			return 1
		}
		return r.Summary.TLBMissRate
	}, true},
}

// handleBest recommends the stored configuration that optimises a metric
// for one workload — the "which design point should I run" query.
func (s *Server) handleBest(w http.ResponseWriter, r *http.Request) {
	wl := r.URL.Query().Get("workload")
	if wl == "" {
		writeErr(w, http.StatusBadRequest, "best needs a workload parameter")
		return
	}
	metric := r.URL.Query().Get("metric")
	if metric == "" {
		metric = "cycles"
	}
	m, ok := bestMetrics[metric]
	if !ok {
		names := make([]string, 0, len(bestMetrics))
		for n := range bestMetrics {
			names = append(names, n)
		}
		sort.Strings(names)
		writeErr(w, http.StatusBadRequest, "unknown metric %q (have %s)", metric, strings.Join(names, ", "))
		return
	}
	all, err := s.store.List()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	var best *Result
	var bestVal float64
	for _, res := range all {
		if res.Workload != wl {
			continue
		}
		v := m.value(res)
		// List is Key-sorted, so strict comparison makes ties deterministic:
		// the lexically-first key wins.
		if best == nil || (m.lower && v < bestVal) || (!m.lower && v > bestVal) {
			best, bestVal = res, v
		}
	}
	if best == nil {
		writeErr(w, http.StatusNotFound, "no stored results for workload %q", wl)
		return
	}
	writeObj(w, http.StatusOK, map[string]any{"metric": metric, "value": bestVal, "result": best})
}

// runLoop is one job runner: it executes queued jobs until Close. The
// server starts opt.jobs() of these; jobs dequeue in submission order and
// run concurrently, sharing the scheduler's slot budget and flight table.
func (s *Server) runLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case id := <-s.queue:
			s.runJob(id)
		}
	}
}

// runCache adapts the durable store to the executor's Results interface
// for one job: Get falls through to the durable store (rehydrating hits
// into the in-memory run store and counting them as FromStore), Put
// publishes to both. The Simulated/Coalesced counters are fed by the
// server's scheduler wrapper — Simulated counts runs this job's flights
// won, Coalesced counts specs adopted from another job's concurrent
// flight. Total = Simulated + FromStore + Coalesced when the job is done,
// which is how the manifest proves no simulation ever ran twice.
type runCache struct {
	mem     *experiments.ResultStore
	durable Store
	size    workloads.Size
	seed    uint64
	plan    gpu.SamplePlan

	mu        sync.Mutex
	simulated int
	fromStore int
	coalesced int
}

func (c *runCache) addSimulated() {
	c.mu.Lock()
	c.simulated++
	c.mu.Unlock()
}

func (c *runCache) addCoalesced() {
	c.mu.Lock()
	c.coalesced++
	c.mu.Unlock()
}

func (c *runCache) Get(spec experiments.RunSpec) (*experiments.RunResult, bool) {
	if r, ok := c.mem.Get(spec); ok {
		return r, true
	}
	key := Key(spec.Workload, c.size, c.seed, spec.Config, c.plan)
	env, ok, err := c.durable.Get(key)
	if err != nil || !ok {
		return nil, false
	}
	c.mem.Put(env.RunResult(spec))
	c.mu.Lock()
	c.fromStore++
	c.mu.Unlock()
	return c.mem.Get(spec)
}

func (c *runCache) Put(res *experiments.RunResult) {
	c.mem.Put(res)
	if res.Err == nil {
		// Persistence failures must not fail the run: the result is still
		// served from memory, it just won't survive a restart. Writes are
		// once-per-key, so a coalesced result arriving from two jobs is
		// persisted exactly once.
		c.durable.Put(FromRun(res, c.size, c.seed, c.plan))
	}
}

func (c *runCache) Len() int                         { return c.mem.Len() }
func (c *runCache) Failed() []*experiments.RunResult { return c.mem.Failed() }
func (c *runCache) counts() (simulated, fromStore, coalesced int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simulated, c.fromStore, c.coalesced
}

// runJob executes one manifest job end to end: expand the canonical
// campaign, run it through the figure pipeline (or the plain workload-set
// path when it declares no figures), persist the report, and journal the
// final state with its dedup counters.
func (s *Server) runJob(id string) {
	job, ok := s.manifest.Job(id)
	if !ok || job.State != StatePending {
		return
	}
	s.manifest.Update(id, func(j *Job) {
		j.State = StateRunning
		j.Started = time.Now().UTC().Format(time.RFC3339)
	})
	report, cache, total, err := s.execute(job)
	s.manifest.Update(id, func(j *Job) {
		j.Finished = time.Now().UTC().Format(time.RFC3339)
		j.Total = total
		if cache != nil {
			j.Simulated, j.FromStore, j.Coalesced = cache.counts()
			j.Failures = len(cache.Failed())
		}
		if err != nil {
			j.State = StateFailed
			if errors.Is(err, obs.ErrDeadline) || errors.Is(err, context.Canceled) ||
				errors.Is(err, context.DeadlineExceeded) {
				j.State = StateTimeout
			}
			j.Error = err.Error()
			return
		}
		path, werr := s.saveReport(j.ID, report)
		if werr != nil {
			j.State = StateFailed
			j.Error = werr.Error()
			return
		}
		j.State = StateDone
		j.ReportPath = path
	})
}

// execute runs the job's campaign and returns the rendered report.
func (s *Server) execute(job *Job) (report []byte, cache *runCache, total int, err error) {
	camp, err := campaign.Parse([]byte(job.Campaign))
	if err != nil {
		return nil, nil, 0, err
	}
	opt, err := camp.HarnessOptions()
	if err != nil {
		return nil, nil, 0, err
	}
	if opt.Workers == 0 && s.opt.Workers > 0 {
		opt.Workers = s.opt.Workers
	}
	if opt.Obs.Deadline.IsZero() && s.opt.JobTimeout > 0 {
		opt.Obs.Deadline = s.clock.Now().Add(s.opt.JobTimeout)
	}
	// The job context enforces the wall-clock budget even while the job
	// waits for simulation slots or another job's flight: obs.Deadline only
	// fires inside a ticking simulation, so without the context a starved
	// job's timeout would stretch with every other job in flight.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if d := opt.Obs.Deadline; !d.IsZero() {
		if wait := d.Sub(s.clock.Now()); wait <= 0 {
			cancel()
		} else {
			ch, stop := s.clock.After(wait)
			defer stop()
			go func() {
				select {
				case <-ch:
					cancel()
				case <-ctx.Done():
				}
			}()
		}
	}
	jobID := job.ID
	opt.Obs.Progress = func(spec experiments.RunSpec, p obs.Progress) {
		s.funnel.Publish(jobID+"|"+spec.String(), p)
	}
	cache = &runCache{
		mem:     experiments.NewResultStore(),
		durable: s.store,
		size:    opt.Size,
		seed:    opt.Seed,
		plan:    opt.Sampling,
	}
	opt.Results = cache
	opt.Simulate = s.scheduled(ctx, cache)

	figs, figErr := camp.ExpandFigures()
	if figErr == nil {
		var buf bytes.Buffer
		h := experiments.New(&buf, opt)
		total = h.PlanFigures(figs).Len()
		err = experiments.RunFigures(h, figs)
		return buf.Bytes(), cache, total, err
	}

	// No figures and no sweep: run the workload set like gpusim would and
	// report the result envelopes as a JSON array (deterministic workload
	// order; envelopes from the store keep their original timestamps).
	cfg, err := camp.MachineConfig()
	if err != nil {
		return nil, cache, 0, err
	}
	exec := &experiments.Executor{
		Workers:    opt.Workers,
		Size:       opt.Size,
		Seed:       opt.Seed,
		Store:      cache,
		Obs:        opt.Obs,
		Checkpoint: opt.Checkpoint,
		Sampling:   opt.Sampling,
		Simulate:   opt.Simulate,
	}
	plan := experiments.NewPlan()
	for _, w := range opt.Workload {
		plan.Add(experiments.RunSpec{Workload: w, Config: cfg})
	}
	exec.Execute(plan)

	envs := make([]*Result, 0, plan.Len())
	var failures []error
	for _, spec := range plan.Specs() {
		key := Key(spec.Workload, opt.Size, opt.Seed, spec.Config, opt.Sampling)
		if env, ok, gerr := s.store.Get(key); gerr == nil && ok {
			envs = append(envs, env)
			continue
		}
		res, ok := cache.mem.Get(spec)
		if !ok {
			failures = append(failures, fmt.Errorf("%s: no result", spec))
			continue
		}
		env := FromRun(res, opt.Size, opt.Seed, opt.Sampling)
		envs = append(envs, env)
		if res.Err != nil {
			failures = append(failures, fmt.Errorf("%s: %w", spec, res.Err))
		}
	}
	body, merr := json.MarshalIndent(envs, "", "  ")
	if merr != nil {
		return nil, cache, plan.Len(), merr
	}
	return append(body, '\n'), cache, plan.Len(), errors.Join(failures...)
}

// scheduled builds the Executor.Simulate wrapper for one job: every
// simulation the job's executor wants first goes through the shared
// scheduler — singleflight on the canonical Result Key (so two jobs
// needing the same spec while neither has finished it run it once), then
// a slot acquisition (so concurrent jobs never oversubscribe the host).
// The wrapper also feeds the job's dedup counters: flights this job won
// count as simulated, flights it adopted count as coalesced.
func (s *Server) scheduled(ctx context.Context, cache *runCache) func(experiments.RunSpec, func(experiments.RunSpec) *experiments.RunResult) *experiments.RunResult {
	return func(spec experiments.RunSpec, run func(experiments.RunSpec) *experiments.RunResult) *experiments.RunResult {
		// Another job may have finished this spec after this one planned it:
		// the durable store is the tiebreak (counted as fromStore).
		if res, ok := cache.Get(spec); ok {
			return res
		}
		key := Key(spec.Workload, cache.size, cache.seed, spec.Config, cache.plan)
		res, coalesced, err := s.sched.do(ctx, key, func() *experiments.RunResult {
			// A flight for this spec may have persisted its envelope and
			// closed between the store check above and this flight
			// opening; check again so the spec never simulates twice.
			if res, ok := cache.Get(spec); ok {
				return res
			}
			if err := s.sched.acquire(ctx); err != nil {
				return abortedResult(spec, err)
			}
			defer s.sched.release()
			cache.addSimulated()
			res := run(spec)
			if res.Err == nil {
				// Persist while the flight is still open: any job that
				// misses the flight must find the envelope in the durable
				// store, otherwise there would be a window in which the
				// same spec simulates twice.
				cache.durable.Put(FromRun(res, cache.size, cache.seed, cache.plan))
			}
			return res
		})
		if err != nil {
			return abortedResult(spec, err)
		}
		if coalesced {
			cache.addCoalesced()
		}
		return res
	}
}

// abortedResult wraps a job-budget abort (context cancellation while
// waiting for a slot or a flight) as a RunResult carrying obs.ErrDeadline,
// so runJob classifies the job as timed out through the same path an
// in-simulation deadline uses.
func abortedResult(spec experiments.RunSpec, cause error) *experiments.RunResult {
	return &experiments.RunResult{
		Spec: spec,
		Err:  fmt.Errorf("%w: job budget exhausted while awaiting a simulation slot (%v)", obs.ErrDeadline, cause),
	}
}

// saveReport persists a finished job's report and returns its
// manifest-recorded path ("" in memory mode).
func (s *Server) saveReport(id string, body []byte) (string, error) {
	if s.opt.Dir == "" {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.reports[id] = body
		return "", nil
	}
	rel := filepath.Join("reports", id+".report")
	abs := filepath.Join(s.opt.Dir, rel)
	if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
		return "", fmt.Errorf("service: report dir: %w", err)
	}
	if err := os.WriteFile(abs, body, 0o644); err != nil {
		return "", fmt.Errorf("service: writing report: %w", err)
	}
	return rel, nil
}

// writeObj writes one JSON response.
func writeObj(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr writes the JSON error envelope every failure path shares.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeObj(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
