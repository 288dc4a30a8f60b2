// Exact-vs-sampled comparison: the validation harness behind the
// `-sampleplan` report and `gpusim -benchsampling`. Each workload is run
// twice on the same machine — once exact, once under the sample plan — and
// the headline metrics are compared, with the end-of-run memory and
// page-table digests pinning that fast-forward advanced architectural
// state exactly.
package experiments

import (
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
// are the oracle for the sampled run's architectural state.
func CompareSampled(w string, size workloads.Size, cfg config.Hardware, seed uint64, plan gpu.SamplePlan) (*SampledRun, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if !plan.Enabled() {
		return nil, fmt.Errorf("experiments: CompareSampled needs an enabled sample plan")
	}
	r := &SampledRun{Workload: w}

	wl, err := workloads.Build(w, size, cfg.PageShift, seed)
	if err != nil {
		return nil, err
	}
	st := &stats.Sim{}
	g, err := gpu.New(cfg, wl.AS, st)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cycles, err := g.Run(wl.Launch)
	if err != nil {
		return nil, fmt.Errorf("%s exact: %w", w, err)
	}
	r.ExactWall = time.Since(start)
	if wl.Check != nil {
		if err := wl.Check(); err != nil {
			return nil, fmt.Errorf("%s exact functional check: %w", w, err)
		}
	}
	r.ExactCycles = cycles
	r.ExactIPC = float64(st.Instructions.Value()) / float64(cycles)
	r.ExactMissRate = st.TLBMissRate()
	exactMem := ref.MemDigest(wl.AS)
	exactPT := ref.PageTableDigest(wl.AS.Mem, wl.AS.PT.CR3())

	wl2, err := workloads.Build(w, size, cfg.PageShift, seed)
	if err != nil {
		return nil, err
	}
	st2 := &stats.Sim{}
	g2, err := gpu.New(cfg, wl2.AS, st2)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	_, smp, err := g2.RunSampled(wl2.Launch, plan)
	if err != nil {
		return nil, fmt.Errorf("%s sampled: %w", w, err)
	}
	r.SampledWall = time.Since(start)
	if wl2.Check != nil {
		if err := wl2.Check(); err != nil {
			return nil, fmt.Errorf("%s sampled functional check: %w", w, err)
		}
	}
	r.Sampled = smp
	r.EstCycles = smp.EstimatedCycles()
	r.EstIPC = smp.IPC()
	r.EstMissRate = smp.TLBMissRate()
	r.CyclesErr = r.EstCycles.RelErr(float64(r.ExactCycles))
	r.IPCErr = r.EstIPC.RelErr(r.ExactIPC)
	r.MissErr = r.EstMissRate.RelErr(r.ExactMissRate)
	if r.SampledWall > 0 {
		r.Speedup = float64(r.ExactWall) / float64(r.SampledWall)
	}
	r.DigestMatch = ref.MemDigest(wl2.AS) == exactMem &&
		ref.PageTableDigest(wl2.AS.Mem, wl2.AS.PT.CR3()) == exactPT

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
