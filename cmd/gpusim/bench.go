// Benchmark modes: -benchcheckpoint records the wall-clock delta of
// checkpointed warm starts versus cold rebuilds over a multi-config sweep
// sharing one workload, and -benchsampling records sampled-vs-exact wall
// clock and accuracy per workload. Both emit a single JSON object on
// stdout, stamped with host CPU count, GOMAXPROCS, and the git SHA handed
// in via -benchlabel, so appended BENCH records are attributable to a
// machine and commit (tools/bench.sh does the appending; schemas in
// EXPERIMENTS.md).
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
	"gpummu/internal/snapshot"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

// benchSchema versions the bench record envelope, mirroring the service
// package's result schema discipline: consumers match on it instead of
// sniffing fields.
const benchSchema = "gpummu.bench/v1"

// benchMeta is the host/commit attribution common to both bench records.
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

type checkpointRecord struct {
	benchMeta
	Configs      int     `json:"configs"` // sweep points sharing the workload
	ColdSeconds  float64 `json:"cold_seconds"`
	WarmSeconds  float64 `json:"warm_seconds"`
	Speedup      float64 `json:"speedup"`
	WarmBuilds   int     `json:"warm_builds"`   // cold builds the pool still had to do (first acquisition)
	WarmRestores int     `json:"warm_restores"` // acquisitions served by snapshot restore
}

// sweepConfigs derives n hardware points that share the workload build
// (PageShift untouched) while varying the MMU design point — the shape of
// the paper's figure sweeps. Entries double per point from 16 and the
// augmented features toggle, so no two points dedupe to one key.
func sweepConfigs(base config.Hardware, n int) []config.Hardware {
	out := make([]config.Hardware, 0, n)
	for i := 0; i < n; i++ {
		c := base
		c.MMU = config.AugmentedMMU()
		c.MMU.Entries = 16 << (i % 6)
		c.MMU.CacheOverlap = i%2 == 0
		c.MMU.PTWSched = i%3 != 0
		out = append(out, c)
	}
	return out
}

// runBenchCheckpoint measures a multi-config sweep sharing one workload
// twice — cold (every run rebuilds the workload from scratch) and warm
// (runs restore from one checkpoint via snapshot.Pool) — verifies the two
// phases simulate identical cycle counts per config, and emits the delta
// as JSON. This is the record the >= 1.3x acceptance gate reads.
func runBenchCheckpoint(cfg config.Hardware, name, sizeName string, sz workloads.Size, seed uint64, nConfigs int, label string) error {
	cfgs := sweepConfigs(cfg, nConfigs)

	runOne := func(c config.Hardware, w *workloads.Workload) (uint64, error) {
		st := &stats.Sim{}
		g, err := gpu.New(c, w.AS, st)
		if err != nil {
			return 0, err
		}
		cycles, err := g.Run(w.Launch)
		if err != nil {
			return 0, err
		}
		if w.Check != nil {
			if err := w.Check(); err != nil {
				return 0, fmt.Errorf("functional check: %w", err)
			}
		}
		return cycles, nil
	}

	coldCycles := make([]uint64, len(cfgs))
	coldStart := time.Now()
	for i, c := range cfgs {
		w, err := workloads.Build(name, sz, c.PageShift, seed)
		if err != nil {
			return err
		}
		if coldCycles[i], err = runOne(c, w); err != nil {
			return fmt.Errorf("cold config %d: %w", i, err)
		}
	}
	coldSecs := time.Since(coldStart).Seconds()

	pool := snapshot.NewPool()
	warmStart := time.Now()
	for i, c := range cfgs {
		w, release, err := pool.Acquire(name, sz, c.PageShift, seed)
		if err != nil {
			return err
		}
		cycles, err := runOne(c, w)
		release()
		if err != nil {
			return fmt.Errorf("warm config %d: %w", i, err)
		}
		if cycles != coldCycles[i] {
			return fmt.Errorf("config %d: warm run simulated %d cycles, cold %d: checkpoint restore must be byte-identical", i, cycles, coldCycles[i])
		}
	}
	warmSecs := time.Since(warmStart).Seconds()

	ps := pool.Stats()
	rec := checkpointRecord{
		benchMeta:    newBenchMeta("checkpoint", name, sizeName, label),
		Configs:      len(cfgs),
		ColdSeconds:  coldSecs,
		WarmSeconds:  warmSecs,
		Speedup:      coldSecs / warmSecs,
		WarmBuilds:   ps.Builds,
		WarmRestores: ps.Restores,
	}
	fmt.Fprintf(os.Stderr, "# benchcheckpoint %d configs: cold %.3fs, warm %.3fs (%.2fx, %d builds + %d restores)\n",
		rec.Configs, coldSecs, warmSecs, rec.Speedup, ps.Builds, ps.Restores)
	return writeBenchJSON(rec)
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
