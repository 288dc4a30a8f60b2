// Exact-vs-sampled comparison: the validation harness behind the
// `-sampleplan` report and `gpusim -benchsampling`. Each workload is run
// twice on the same machine — once exact, once under the sample plan — and
// the headline metrics are compared, with the end-of-run memory and
// page-table digests pinning that fast-forward advanced architectural
// state exactly.
package experiments

import (
	"context"
	"fmt"
	"time"

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
	ExactWall     time.Duration

	Sampled     *stats.Sampled
	EstCycles   stats.Metric
	EstIPC      stats.Metric
	EstMissRate stats.Metric
	SampledWall time.Duration

	CyclesErr float64 // |est-exact|/exact
	IPCErr    float64
	MissErr   float64

	Speedup     float64 // exact wall / sampled wall
	DigestMatch bool    // end-of-run MemDigest and PageTableDigest identical
}

// CompareSampled runs workload w at the given size twice on cfg — exact,
// then under plan — and returns the comparison. Both runs build the
// workload fresh with the same seed, so the exact run's end-of-run digests
// are the oracle for the sampled run's architectural state. Each wall
// time spans configuring, running and checking one build.
func CompareSampled(w string, size workloads.Size, cfg config.Hardware, seed uint64, plan gpu.SamplePlan) (*SampledRun, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if !plan.Enabled() {
		return nil, fmt.Errorf("experiments: CompareSampled needs an enabled sample plan")
	}
	var outs [2]*Outcome
	var walls [2]time.Duration
	var mem, pt [2]uint64
	for i, p := range []gpu.SamplePlan{{}, plan} {
		label := [2]string{"exact", "sampled"}[i]
		wl, err := workloads.Build(w, size, cfg.PageShift, seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		outs[i], err = Run(context.Background(), Sim{Workload: wl, Config: cfg, Sampling: p})
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", w, label, err)
		}
		walls[i] = time.Since(start)
		mem[i] = ref.MemDigest(wl.AS)
		pt[i] = ref.PageTableDigest(wl.AS.Mem, wl.AS.PT.CR3())
	}

	exact, smp := outs[0], outs[1].Sampled
	r := &SampledRun{
		Workload:      w,
		ExactCycles:   exact.Cycles,
		ExactIPC:      float64(exact.Stats.Instructions.Value()) / float64(exact.Cycles),
		ExactMissRate: exact.Stats.TLBMissRate(),
		ExactWall:     walls[0],
		Sampled:       smp,
		EstCycles:     smp.EstimatedCycles(),
		EstIPC:        smp.IPC(),
		EstMissRate:   smp.TLBMissRate(),
		SampledWall:   walls[1],
		DigestMatch:   mem[0] == mem[1] && pt[0] == pt[1],
	}
	r.CyclesErr = r.EstCycles.RelErr(float64(r.ExactCycles))
	r.IPCErr = r.EstIPC.RelErr(r.ExactIPC)
	r.MissErr = r.EstMissRate.RelErr(r.ExactMissRate)
	if r.SampledWall > 0 {
		r.Speedup = float64(r.ExactWall) / float64(r.SampledWall)
	}
	return r, nil
}

// SampledReport renders the exact-vs-sampled validation table for the
// harness's workloads on its machine with the paper's augmented MMU: per
// workload, the exact value, the sampled estimate with its 95% CI, and the
// relative error, for cycles, IPC, and TLB miss rate — plus the detail
// fraction and the architectural-state digest check. Wall-clock speedup is
// intentionally absent: it depends on the host; `gpusim -benchsampling`
// records it.
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
