// Exact-vs-sampled comparison: the validation harness behind the
// `-samplereport` table and BenchmarkSampledVsExact. Each workload is run
// twice on the same machine — once exact, once under the sample plan — and
// the headline metrics are compared, with the end-of-run memory and
// page-table digests pinning that fast-forward advanced architectural
// state exactly.
package experiments

import (
	"context"
	"fmt"

	"gpummu/internal/config"
	"gpummu/internal/gpu"
	"gpummu/internal/ref"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

// SampledRun is one workload's exact-vs-sampled comparison.
type SampledRun struct {
	Workload string

	ExactCycles   uint64
	ExactIPC      float64
	ExactMissRate float64

	Sampled     *stats.Sampled
	EstCycles   stats.Metric
	EstIPC      stats.Metric
	EstMissRate stats.Metric

	CyclesErr float64 // |est-exact|/exact
	IPCErr    float64
	MissErr   float64

	DigestMatch bool // end-of-run MemDigest and PageTableDigest identical
}

// CompareSampled runs workload w at the given size twice on cfg — exact,
// then under plan — and returns the comparison. Both runs build the
// workload fresh with the same seed, so the exact run's end-of-run digests
// are the oracle for the sampled run's architectural state.
func CompareSampled(w string, size workloads.Size, cfg config.Hardware, seed uint64, plan gpu.SamplePlan) (*SampledRun, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if !plan.Enabled() {
		return nil, fmt.Errorf("experiments: CompareSampled needs an enabled sample plan")
	}
	exact, err := runDigested(w, size, cfg, seed, gpu.SamplePlan{})
	if err != nil {
		return nil, fmt.Errorf("%s exact: %w", w, err)
	}
	sampled, err := runDigested(w, size, cfg, seed, plan)
	if err != nil {
		return nil, fmt.Errorf("%s sampled: %w", w, err)
	}
	return compareSampled(w, exact, sampled), nil
}

// digestedRun is one run's outcome plus the end-of-run digests of its
// memory image and page tables.
type digestedRun struct {
	*Outcome
	mem, pt uint64
}

// runDigested builds workload w, runs it on cfg under plan (the zero plan
// runs exact) and digests the architectural state it leaves.
func runDigested(w string, size workloads.Size, cfg config.Hardware, seed uint64, plan gpu.SamplePlan) (digestedRun, error) {
	wl, err := workloads.Build(w, size, cfg.PageShift, seed)
	if err != nil {
		return digestedRun{}, err
	}
	out, err := Run(context.Background(), Sim{Workload: wl, Config: cfg, Sampling: plan})
	if err != nil {
		return digestedRun{}, err
	}
	return digestedRun{out, ref.MemDigest(wl.AS), ref.PageTableDigest(wl.AS.Mem, wl.AS.PT.CR3())}, nil
}

// compareSampled scores a sampled run of workload w against its exact
// twin.
func compareSampled(w string, exact, sampled digestedRun) *SampledRun {
	smp := sampled.Sampled
	r := &SampledRun{
		Workload:      w,
		ExactCycles:   exact.Cycles,
		ExactIPC:      float64(exact.Stats.Instructions.Value()) / float64(exact.Cycles),
		ExactMissRate: exact.Stats.TLBMissRate(),
		Sampled:       smp,
		EstCycles:     smp.EstimatedCycles(),
		EstIPC:        smp.IPC(),
		EstMissRate:   smp.TLBMissRate(),
		DigestMatch:   exact.mem == sampled.mem && exact.pt == sampled.pt,
	}
	r.CyclesErr = r.EstCycles.RelErr(float64(r.ExactCycles))
	r.IPCErr = r.EstIPC.RelErr(r.ExactIPC)
	r.MissErr = r.EstMissRate.RelErr(r.ExactMissRate)
	return r
}

// SampledReport renders the exact-vs-sampled validation table for the
// harness's workloads on its machine with the paper's augmented MMU: per
// workload, the exact value, the sampled estimate with its 95% CI, and the
// relative error, for cycles, IPC, and TLB miss rate — plus the detail
// fraction and the architectural-state digest check. Wall-clock speedup is
// intentionally absent: it depends on the host; BenchmarkSampledVsExact
// measures it.
func SampledReport(h *Harness, plan gpu.SamplePlan) (string, error) {
	cfg := h.cfgWith(config.AugmentedMMU())
	tbl := stats.NewTable("workload", "exact_cycles", "est_cycles", "cyc_err%",
		"exact_ipc", "est_ipc", "ipc_err%", "exact_miss", "est_miss", "miss_err%",
		"detail_frac", "digests")
	for _, w := range h.opt.Workload {
		r, err := CompareSampled(w, h.opt.Size, cfg, h.opt.Seed, plan)
		if err != nil {
			return "", err
		}
		digests := "identical"
		if !r.DigestMatch {
			digests = "DIFFER"
		}
		tbl.AddRow(w, r.ExactCycles, r.EstCycles.String(), 100*r.CyclesErr,
			r.ExactIPC, r.EstIPC.String(), 100*r.IPCErr,
			r.ExactMissRate, r.EstMissRate.String(), 100*r.MissErr,
			r.Sampled.DetailFraction(), digests)
	}
	return tbl.String(), nil
}
