// Benchmark mode: -benchsampling records sampled-vs-exact wall clock and
// accuracy per workload. It emits a single JSON object on stdout, stamped
// with host CPU count, GOMAXPROCS, and the git SHA handed in via
// -benchlabel, so appended BENCH records are attributable to a machine and
// commit (tools/bench.sh does the appending; schema in EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/gpu"
	"gpummu/internal/workloads"
)

// benchSchema versions the bench record envelope, mirroring the service
// package's result schema discipline: consumers match on it instead of
// sniffing fields.
const benchSchema = "gpummu.bench/v1"

// benchMeta is the host/commit attribution of a bench record.
type benchMeta struct {
	Schema     string `json:"schema"`
	Kind       string `json:"kind"`
	Workload   string `json:"workload"`
	Size       string `json:"size"`
	Date       string `json:"date"`
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitSHA     string `json:"git_sha"`
}

func newBenchMeta(kind, workload, size, label string) benchMeta {
	if label == "" {
		label = "unknown"
	}
	return benchMeta{
		Schema:     benchSchema,
		Kind:       kind,
		Workload:   workload,
		Size:       size,
		Date:       time.Now().UTC().Format(time.RFC3339),
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA:     label,
	}
}

// samplingWorkload is one workload's row in the sampling bench record.
type samplingWorkload struct {
	Workload       string  `json:"workload"`
	ExactSeconds   float64 `json:"exact_seconds"`
	SampledSeconds float64 `json:"sampled_seconds"`
	Speedup        float64 `json:"speedup"`
	ExactCycles    uint64  `json:"exact_cycles"`
	EstCycles      float64 `json:"est_cycles"`
	EstCyclesCI    float64 `json:"est_cycles_ci"`
	CyclesErr      float64 `json:"cycles_err"` // |est-exact|/exact
	IPCErr         float64 `json:"ipc_err"`
	MissRateErr    float64 `json:"missrate_err"`
	DetailFraction float64 `json:"detail_fraction"`
	DigestsMatch   bool    `json:"digests_identical"` // end-of-run MemDigest + PageTableDigest vs the exact run
}

type samplingRecord struct {
	benchMeta
	Plan             string             `json:"plan"` // warmup,detail,fastforward[,warm]
	Workloads        []samplingWorkload `json:"workloads"`
	AggregateSpeedup float64            `json:"aggregate_speedup"` // sum(exact)/sum(sampled) wall clock
	MaxIPCErr        float64            `json:"max_ipc_err"`
	MaxMissRateErr   float64            `json:"max_missrate_err"`
}

// runBenchSampling measures sampled-vs-exact wall clock and accuracy per
// workload on the paper's augmented MMU (the configuration the sampled
// validation story standardises on, matching experiments.SampledReport) and
// emits one JSON record. The >=5x wall-clock / <=2% IPC-and-miss-rate
// acceptance gate reads aggregate_speedup, max_ipc_err and max_missrate_err;
// digests_identical pins that fast-forward advanced architectural state
// exactly.
func runBenchSampling(cfg config.Hardware, names []string, sizeName string, sz workloads.Size, seed uint64, plan gpu.SamplePlan, label string) error {
	cfg.MMU = config.AugmentedMMU()
	rec := samplingRecord{
		benchMeta: newBenchMeta("sampling", strings.Join(names, ","), sizeName, label),
		Plan:      plan.String(),
	}
	var exactSum, sampledSum float64
	for _, name := range names {
		r, err := experiments.CompareSampled(name, sz, cfg, seed, plan)
		if err != nil {
			return fmt.Errorf("-benchsampling %s: %w", name, err)
		}
		row := samplingWorkload{
			Workload:       name,
			ExactSeconds:   r.ExactWall.Seconds(),
			SampledSeconds: r.SampledWall.Seconds(),
			Speedup:        r.Speedup,
			ExactCycles:    r.ExactCycles,
			EstCycles:      r.EstCycles.Value,
			EstCyclesCI:    r.EstCycles.CI,
			CyclesErr:      r.CyclesErr,
			IPCErr:         r.IPCErr,
			MissRateErr:    r.MissErr,
			DetailFraction: r.Sampled.DetailFraction(),
			DigestsMatch:   r.DigestMatch,
		}
		rec.Workloads = append(rec.Workloads, row)
		exactSum += row.ExactSeconds
		sampledSum += row.SampledSeconds
		if row.IPCErr > rec.MaxIPCErr {
			rec.MaxIPCErr = row.IPCErr
		}
		if row.MissRateErr > rec.MaxMissRateErr {
			rec.MaxMissRateErr = row.MissRateErr
		}
		fmt.Fprintf(os.Stderr, "# benchsampling %s: exact %.3fs, sampled %.3fs (%.2fx), ipc_err %.2f%%, miss_err %.2f%%, digests %v\n",
			name, row.ExactSeconds, row.SampledSeconds, row.Speedup, 100*row.IPCErr, 100*row.MissRateErr, row.DigestsMatch)
	}
	if sampledSum > 0 {
		rec.AggregateSpeedup = exactSum / sampledSum
	}
	fmt.Fprintf(os.Stderr, "# benchsampling aggregate: %.2fx (exact %.3fs / sampled %.3fs)\n",
		rec.AggregateSpeedup, exactSum, sampledSum)
	return writeBenchJSON(rec)
}

func writeBenchJSON(rec interface{}) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}
