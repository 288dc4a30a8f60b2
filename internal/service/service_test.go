package service

// Store, manifest, and server tests: the durable pieces the job server's
// restart-resume and dedup guarantees rest on. Simulation-heavy paths use
// the tiny pointerchase workload so the suite stays fast.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpummu/internal/campaign"
	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/gpu"
	"gpummu/internal/workloads"
)

// run executes one tiny simulation and wraps it in the envelope, giving
// store tests a real Result (with histograms) to round-trip.
func runEnvelope(t *testing.T, workload string, cfg config.Hardware) *Result {
	t.Helper()
	spec := experiments.RunSpec{Workload: workload, Config: cfg}
	plan := experiments.NewPlan()
	plan.Add(spec)
	exec := &experiments.Executor{Size: workloads.SizeTiny, Seed: 1}
	exec.Execute(plan)
	res, _ := exec.Store.Get(spec)
	if res.Err != nil {
		t.Fatalf("%s: %v", workload, res.Err)
	}
	return FromRun(res, workloads.SizeTiny, 1, gpu.SamplePlan{})
}

// TestFileStoreRoundTrip: a persisted envelope must reload byte-equal
// after reopening the store, and rehydrate into a RunResult whose stats
// render identically.
func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := config.SmallTest()
	env := runEnvelope(t, "pointerchase", cfg)

	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(env); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok, err := s2.Get(env.Key)
	if err != nil || !ok {
		t.Fatalf("Get after reopen: ok=%v err=%v", ok, err)
	}
	a, _ := json.Marshal(env)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("envelope changed across reopen:\n%s\n%s", a, b)
	}
	// Rehydrated stats must carry the full histogram state (the byte-
	// identity of store-served reports depends on it).
	spec := experiments.RunSpec{Workload: env.Workload, Config: cfg}
	rr := got.RunResult(spec)
	if rr.Stats == nil || rr.Stats.String() != env.Stats.String() {
		t.Fatal("rehydrated stats do not render identically")
	}
}

// TestFileStoreWriteOnce: the first Put for a key wins; failed results
// are rejected outright.
func TestFileStoreWriteOnce(t *testing.T) {
	s, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := &Result{Schema: ResultSchema, Key: "k", Workload: "w", Cycles: 1}
	b := &Result{Schema: ResultSchema, Key: "k", Workload: "w", Cycles: 2}
	if err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.Get("k")
	if got.Cycles != 1 {
		t.Fatalf("second Put overwrote: cycles=%d", got.Cycles)
	}
	if err := s.Put(&Result{Schema: ResultSchema, Key: "fail", Error: "boom"}); err == nil {
		t.Fatal("failed result stored")
	}
}

// TestFileStoreTolerantTail: a crash-truncated final line is skipped on
// open; the intact lines before it survive.
func TestFileStoreTolerantTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r := &Result{Schema: ResultSchema, Key: fmt.Sprintf("k%d", i), Workload: "w", Cycles: uint64(i)}
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Simulate a crash mid-append: a torn half-line at the tail.
	seg := filepath.Join(dir, "results-000001.jsonl")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"schema":"gpummu.result/v1","key":"torn","cyc`)
	f.Close()

	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 3 || s2.Skipped() != 1 {
		t.Fatalf("len=%d skipped=%d, want 3/1", s2.Len(), s2.Skipped())
	}
	// The store must keep appending cleanly after the torn line.
	if err := s2.Put(&Result{Schema: ResultSchema, Key: "k3", Workload: "w"}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, ok, _ := s3.Get("k3"); !ok {
		t.Fatal("post-tear append lost")
	}
}

// TestManifestReplay: the journal survives reopen, last record per job
// wins, and interrupted running jobs come back pending.
func TestManifestReplay(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m.NewJob("campaign", "a", "doc-a")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.NewJob("run", "b", "doc-b")
	if err != nil {
		t.Fatal(err)
	}
	m.Update(j1.ID, func(j *Job) { j.State = StateDone; j.Simulated = 5 })
	m.Update(j2.ID, func(j *Job) { j.State = StateRunning })
	m.Close()

	m2, err := OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	g1, ok := m2.Job(j1.ID)
	if !ok || g1.State != StateDone || g1.Simulated != 5 {
		t.Fatalf("j1 after replay: %+v", g1)
	}
	g2, ok := m2.Job(j2.ID)
	if !ok || g2.State != StatePending {
		t.Fatalf("interrupted job not requeued: %+v", g2)
	}
	if ids := m2.Resumable(); len(ids) != 1 || ids[0] != j2.ID {
		t.Fatalf("resumable = %v", ids)
	}
	// New IDs must continue past replayed ones.
	j3, err := m2.NewJob("run", "c", "doc-c")
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID == j1.ID || j3.ID == j2.ID {
		t.Fatalf("ID collision: %s", j3.ID)
	}
}

// adhocDoc builds the canonical campaign document the restart test
// pre-seeds the manifest with.
func adhocDoc(t *testing.T, names ...string) string {
	t.Helper()
	c, err := campaign.NewAdhoc("resume-test", names, "tiny", 1, "small", nil, campaign.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return string(c.Emit())
}

// TestServerResumesInterruptedJob: a job left pending by a dead server,
// with part of its work already in the durable store, must complete on
// restart simulating only the remainder.
func TestServerResumesInterruptedJob(t *testing.T) {
	dir := t.TempDir()

	// Process one: journal a pending two-workload job and persist one of
	// its two results, then "crash" (close without running).
	store, err := OpenFileStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	small := config.SmallTest()
	if err := store.Put(runEnvelope(t, "pointerchase", small)); err != nil {
		t.Fatal(err)
	}
	store.Close()
	man, err := OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := man.NewJob("run", "resume-test", adhocDoc(t, "pointerchase", "kmeans")); err != nil {
		t.Fatal(err)
	}
	man.Close()

	// Process two: the server must requeue the pending job and finish it
	// with exactly one fresh simulation.
	srv, err := NewServer(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	deadline := time.Now().Add(2 * time.Minute)
	var job *Job
	for {
		j, ok := srv.Manifest().Job("j1")
		if ok && (j.State == StateDone || j.State == StateFailed || j.State == StateTimeout) {
			job = j
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", j)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if job.State != StateDone {
		t.Fatalf("resumed job finished %s: %s", job.State, job.Error)
	}
	if job.Total != 2 || job.Simulated != 1 || job.FromStore != 1 {
		t.Fatalf("resume counters = total %d simulated %d fromStore %d, want 2/1/1",
			job.Total, job.Simulated, job.FromStore)
	}
}

// TestServerResumesJobStoredWithPar: a job journalled by a server that
// still emitted run.par must resume and complete. The document is what
// such a server stored for an ad-hoc pointerchase run with par 2.
func TestServerResumesJobStoredWithPar(t *testing.T) {
	const doc = `apiVersion: gpummu/v1
name: resume-test
description: ""
machine:
  preset: small
  set: {}
workloads:
  names: [pointerchase]
  size: tiny
  seed: 1
figures: []
sweep:
  normalize: false
  axes: []
run:
  workers: 0
  par: 2
  checkpoint: false
  sampling:
    warmup: 0
    detail: 0
    fastforward: 0
    warmtlb: false
obs:
  sampleEvery: 0
  sampleDir: ""
  watchdog: 0
  maxCycles: 0
  deadline: 0s
output:
  report: ""
`
	dir := t.TempDir()
	man, err := OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := man.NewJob("run", "resume-test", doc); err != nil {
		t.Fatal(err)
	}
	man.Close()

	srv, err := NewServer(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		j, ok := srv.Manifest().Job("j1")
		if ok && j.State == StateDone {
			if j.Total != 1 || j.Simulated != 1 {
				t.Fatalf("resumed job counters = total %d simulated %d, want 1/1", j.Total, j.Simulated)
			}
			return
		}
		if ok && (j.State == StateFailed || j.State == StateTimeout) {
			t.Fatalf("resumed job finished %s: %s", j.State, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", j)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerCampaignByteIdentity: a campaign job's report must be
// byte-identical to the same campaign run directly through the harness,
// both when simulated fresh and when served entirely from the store.
func TestServerCampaignByteIdentity(t *testing.T) {
	doc := `apiVersion: gpummu/v1
name: fig2-tiny-test
machine: small
workloads:
  names: [pointerchase, kmeans]
  size: tiny
figures: [fig2]
`
	camp, err := campaign.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := camp.HarnessOptions()
	if err != nil {
		t.Fatal(err)
	}
	figs, err := camp.ExpandFigures()
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := experiments.RunFigures(experiments.New(&want, opt), figs); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	// The rounds run in this order: the second must be served from the
	// store the first filled.
	for _, rnd := range []struct {
		round   string
		wantSim bool
	}{{"fresh", true}, {"stored", false}} {
		round, wantSim := rnd.round, rnd.wantSim
		job, err := c.SubmitCampaign([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		job, err = c.Wait(ctx, job.ID, 20*time.Millisecond)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if job.State != StateDone {
			t.Fatalf("%s: job finished %s: %s", round, job.State, job.Error)
		}
		if wantSim && job.Simulated == 0 {
			t.Fatalf("%s: nothing simulated", round)
		}
		if !wantSim && job.Simulated != 0 {
			t.Fatalf("%s: resubmission simulated %d runs", round, job.Simulated)
		}
		got, err := c.Report(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want.String() {
			t.Fatalf("%s: server report differs from direct harness run", round)
		}
	}
}

// TestServerRejectsBadSubmissions: validation failures must come back as
// HTTP errors with the campaign's field diagnostics, not run.
func TestServerRejectsBadSubmissions(t *testing.T) {
	srv, err := NewServer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	cases := []struct {
		body any
		want string // substring of the error, when one is pinned
	}{
		{SubmitRequest{}, ""},                                                                         // nothing to run
		{SubmitRequest{Workloads: []string{"no-such"}}, ""},                                           // unknown workload
		{SubmitRequest{Workloads: []string{"bfs"}, Size: "xl"}, ""},                                   // bad size
		{SubmitRequest{Campaign: "apiVersion: gpummu/v1\nname: x\n", Workloads: []string{"bfs"}}, ""}, // both forms
		{SubmitRequest{Workloads: []string{"bfs"}, Sampling: "nonsense"}, ""},                         // bad plan
		// par, the retired core-ticking worker count, is no longer a field.
		{json.RawMessage(`{"workloads":["pointerchase"],"size":"tiny","machine":"small","par":2}`), `unknown field "par"`},
	}
	for i, tc := range cases {
		err := c.do(http.MethodPost, "/v1/jobs", tc.body, nil)
		if err == nil {
			body, _ := json.Marshal(tc.body)
			t.Errorf("case %d accepted: %s", i, body)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error %q does not mention %q", i, err, tc.want)
		}
	}
	if _, err := c.Job("j999"); err == nil {
		t.Error("unknown job fetched")
	}
	if _, err := c.Compare("only-one"); err == nil {
		t.Error("one-key compare accepted")
	}
	if _, _, err := c.Best("", ""); err == nil {
		t.Error("workload-less best accepted")
	}
}
