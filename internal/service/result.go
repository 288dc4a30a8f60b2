// Package service is the simulation-as-a-service layer: a job server
// (cmd/gpusimd) that accepts campaign or (workload, config) submissions
// over a versioned HTTP/JSON API, executes them through the existing
// campaign → experiments pipeline, and persists every result in a durable
// store keyed by canonical simulation identity — so no client of the same
// store ever pays for the same simulation twice.
//
// The package exports four pieces:
//
//   - Result, the schema-versioned JSON envelope every stored result, /v1
//     response, and `gpusim -json` object shares (result.go);
//   - Store, the durable result store interface, with an in-memory and an
//     append-only JSONL segment implementation (store.go);
//   - Manifest, the journalled run manifest whose pending/running/done/
//     failed/timeout job states survive restart (manifest.go);
//   - Server and Client, the /v1 HTTP surface and its Go consumer
//     (server.go, client.go).
//
// DESIGN.md section 16 is the architecture reference.
package service

import (
	"fmt"
	"time"

	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/gpu"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

// ResultSchema is the envelope schema version this package reads and
// writes. Incompatible revisions bump the suffix; readers reject unknown
// versions instead of guessing.
const ResultSchema = "gpummu.result/v1"

// Result is the versioned envelope for one simulation outcome. It is the
// single result currency of the system: the durable store persists it, the
// /v1 endpoints serve it, and `gpusim -json` prints it.
//
// Identity: Key canonically names the simulation (workload, size, seed,
// sampling plan, and the full config.Hardware.Key), so two Results with
// equal Keys describe byte-identical simulations and the store never needs
// to run one of them twice. Stats and Sampled round-trip losslessly
// through JSON (stats.Hist marshals its full bucket state), which is what
// lets a report rendered from rehydrated results match a fresh run byte
// for byte.
type Result struct {
	Schema    string `json:"schema"`
	Key       string `json:"key"`
	Workload  string `json:"workload"`
	Size      string `json:"size"`
	Seed      uint64 `json:"seed"`
	ConfigKey string `json:"configKey"`
	// Plan is the sampling plan ("warmup,detail,fastforward[,warm]") or
	// "exact" for full-detail runs.
	Plan string `json:"plan"`

	// Cycles is the simulated cycle count (detailed cycles under a
	// sampling plan; Sampled then carries the extrapolated estimates).
	Cycles uint64 `json:"cycles"`

	// Stats is the complete end-of-run statistics record; nil only on a
	// failed run.
	Stats *stats.Sim `json:"stats,omitempty"`
	// Sampled is the interval-sampling record for sampled runs.
	Sampled *stats.Sampled `json:"sampled,omitempty"`
	// Summary holds the derived headline metrics (miss rates, fractions),
	// precomputed so jq-style consumers need no simulator arithmetic.
	Summary *Summary `json:"summary,omitempty"`

	// WallMS is host wall time in milliseconds — attribution, not
	// identity: it records what the result cost whoever computed it.
	WallMS float64 `json:"wallMs,omitempty"`
	// Created stamps when the result was computed (RFC3339, UTC).
	Created string `json:"created,omitempty"`
	// Error is the failure message of an unsuccessful run (Stats nil).
	// Failed results are returned to clients but never persisted.
	Error string `json:"error,omitempty"`
}

// Summary is the derived-metric block of a Result: every rate and mean the
// classic `gpusim -json` object reported, computed once at envelope
// construction.
type Summary struct {
	Instructions  uint64  `json:"instructions"`
	MemFraction   float64 `json:"memFraction"`
	IdleFraction  float64 `json:"idleFraction"`
	TLBAccesses   uint64  `json:"tlbAccesses"`
	TLBMissRate   float64 `json:"tlbMissRate"`
	TLBMissLat    float64 `json:"tlbMissLat"`
	L1MissRate    float64 `json:"l1MissRate"`
	L1MissLat     float64 `json:"l1MissLat"`
	L2MissRate    float64 `json:"l2MissRate"`
	PageDivAvg    float64 `json:"pageDivAvg"`
	PageDivMax    int     `json:"pageDivMax"`
	Walks         uint64  `json:"walks"`
	WalkRefs      uint64  `json:"walkRefs"`
	WalkRefsElim  float64 `json:"walkRefsElim"`
	WalkLat       float64 `json:"walkLat"`
	PWCHits       uint64  `json:"pwcHits"`
	SharedTLBHits uint64  `json:"sharedTlbHits"`
	Compacted     uint64  `json:"compacted"`
	SIMDUtil      float64 `json:"simdUtil"`

	// Sampled estimates with 95% confidence half-widths, present only for
	// sampled runs.
	EstCycles      float64 `json:"estCycles,omitempty"`
	EstCyclesCI    float64 `json:"estCyclesCI,omitempty"`
	EstIPC         float64 `json:"estIPC,omitempty"`
	EstIPCCI       float64 `json:"estIPCCI,omitempty"`
	DetailFraction float64 `json:"detailFraction,omitempty"`
}

// NewSummary derives the headline metrics from a completed run.
func NewSummary(st *stats.Sim, smp *stats.Sampled, warpWidth int) *Summary {
	if st == nil {
		return nil
	}
	s := &Summary{
		Instructions:  st.Instructions.Value(),
		MemFraction:   st.MemFraction(),
		IdleFraction:  st.IdleFraction(),
		TLBAccesses:   st.TLBAccesses.Value(),
		TLBMissRate:   st.TLBMissRate(),
		TLBMissLat:    st.TLBMissLat.Mean(),
		L1MissRate:    st.L1MissRate(),
		L1MissLat:     st.L1MissLat.Mean(),
		L2MissRate:    st.L2MissRate(),
		PageDivAvg:    st.PageDivergence.Mean(),
		PageDivMax:    st.PageDivergence.Max(),
		Walks:         st.Walks.Value(),
		WalkRefs:      st.WalkRefs.Value(),
		WalkRefsElim:  st.WalkRefsEliminated(),
		WalkLat:       st.WalkLat.Mean(),
		PWCHits:       st.PWCHits.Value(),
		SharedTLBHits: st.SharedTLBHits.Value(),
		Compacted:     st.CompactedWarps.Value(),
		SIMDUtil:      st.SIMDUtilisation(warpWidth),
	}
	if smp != nil {
		ec, ipc := smp.EstimatedCycles(), smp.IPC()
		s.EstCycles, s.EstCyclesCI = ec.Value, ec.CI
		s.EstIPC, s.EstIPCCI = ipc.Value, ipc.CI
		s.DetailFraction = smp.DetailFraction()
	}
	return s
}

// planLabel renders a sampling plan for keys and envelopes.
func planLabel(plan gpu.SamplePlan) string {
	if !plan.Enabled() {
		return "exact"
	}
	return plan.String()
}

// Key canonically identifies one simulation for dedup and store lookup:
// everything that determines its output — workload, dataset scale, seed,
// sampling plan, the simulator's model version (gpu.ModelVersion), and
// every hardware field via config.Hardware.Key — and nothing that does not
// (worker counts, checkpointing, observability).
func Key(workload string, size workloads.Size, seed uint64, cfg config.Hardware, plan gpu.SamplePlan) string {
	return fmt.Sprintf("%s|size=%s|seed=%d|plan=%s|model=%d|%s", workload, size, seed, planLabel(plan), gpu.ModelVersion, cfg.Key())
}

// New builds the envelope for one completed (or failed) run.
func New(workload string, size workloads.Size, seed uint64, cfg config.Hardware, plan gpu.SamplePlan,
	cycles uint64, st *stats.Sim, smp *stats.Sampled, wall time.Duration, runErr error) *Result {
	r := &Result{
		Schema:    ResultSchema,
		Key:       Key(workload, size, seed, cfg, plan),
		Workload:  workload,
		Size:      size.String(),
		Seed:      seed,
		ConfigKey: cfg.Key(),
		Plan:      planLabel(plan),
		Cycles:    cycles,
		Stats:     st,
		Sampled:   smp,
		Summary:   NewSummary(st, smp, cfg.WarpWidth),
		WallMS:    float64(wall.Microseconds()) / 1000,
		Created:   time.Now().UTC().Format(time.RFC3339),
	}
	if runErr != nil {
		r.Error = runErr.Error()
		r.Stats, r.Sampled, r.Summary = nil, nil, nil
	}
	return r
}

// FromRun wraps one executor result in the envelope.
func FromRun(res *experiments.RunResult, size workloads.Size, seed uint64, plan gpu.SamplePlan) *Result {
	var cycles uint64
	if res.Stats != nil {
		cycles = res.Stats.Cycles
	}
	return New(res.Spec.Workload, size, seed, res.Spec.Config, plan, cycles, res.Stats, res.Sampled, res.Wall, res.Err)
}

// RunResult rehydrates the envelope into the executor's result type for
// the given spec, so renderers read stored results exactly as they read
// fresh ones. The returned statistics are deep clones: callers can never
// mutate the stored envelope through them.
func (r *Result) RunResult(spec experiments.RunSpec) *experiments.RunResult {
	rr := &experiments.RunResult{
		Spec: spec,
		Wall: time.Duration(r.WallMS * float64(time.Millisecond)),
	}
	if r.Error != "" {
		rr.Err = fmt.Errorf("%s", r.Error)
		return rr
	}
	if r.Stats != nil {
		rr.Stats = r.Stats.Clone()
	}
	if r.Sampled != nil {
		smp := *r.Sampled
		smp.Intervals = append([]stats.Interval(nil), r.Sampled.Intervals...)
		rr.Sampled = &smp
	}
	return rr
}
