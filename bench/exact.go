package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"gpummu/internal/config"
	"gpummu/internal/gpu"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

// exactSpec is a closed loop of exact simulations, one caller, cycling
// through a workload list on the paper's 30-core baseline machine.
type exactSpec struct {
	names   []string
	mmu     config.MMU
	mmuName string
}

// exactAugmented runs the paper's recommended MMU: host time goes to the
// issue path, the coalescer, the caches and the TLB hit path.
var exactAugmented = exactSpec{names: workloads.PaperSet(), mmu: config.AugmentedMMU(), mmuName: "augmented"}

// exactBlocking runs figure 2's blocking strawman on the three workloads
// whose cores sit frozen longest, so the idle-core path dominates.
var exactBlocking = exactSpec{names: []string{"mummergpu", "kmeans", "pathfinder"}, mmu: config.NaiveMMU(3), mmuName: "naive-3port"}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

// datasetSeed derives the dataset seed of pass (or campaign) k from the
// benchmark seed; it is never 0.
func datasetSeed(seed uint64, k int) uint64 { return seed*1000 + uint64(k) + 1 }

func (x exactSpec) size(o options) workloads.Size {
	if o.smoke {
		return workloads.SizeTiny
	}
	return workloads.SizeSmall
}

func (x exactSpec) params(o options) map[string]any {
	return map[string]any{
		"workloads": x.names, "size": x.size(o).String(), "machine": "baseline", "mmu": x.mmuName,
		"loop": "closed, 1 caller", "setups": setupRepeats,
	}
}

// simRecord is one measured simulation.
type simRecord struct {
	name, req                string // req names the run: workload@dataset-seed
	build, newGPU, run, chk  time.Duration
	st                       *stats.Sim
	digest                   string
	runMallocs, runAllocByte float64
}

func (r simRecord) total() time.Duration { return r.build + r.newGPU + r.run + r.chk }

func (x exactSpec) run(e *env) (*outcome, error) {
	out := newOutcome()
	cfg := config.Baseline()
	cfg.MMU = x.mmu
	size := x.size(e.options)

	// Set-up is building every input and configuring the GPU for it. The
	// results are discarded: a kernel mutates its data, so each measured
	// simulation builds afresh.
	var setups []float64
	var mappedMB, ptPages float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		root := e.tr.begin(0, "setup", fmt.Sprintf("setup-%d", i))
		var total time.Duration
		for _, name := range x.names {
			start := time.Now()
			sp := e.tr.begin(root, "workloads.Build", name)
			wl, err := workloads.Build(name, size, cfg.PageShift, datasetSeed(e.seed, 0))
			e.tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("building %s: %w", name, err)
			}
			sp = e.tr.begin(root, "gpu.New", name)
			_, err = gpu.New(cfg, wl.AS, &stats.Sim{})
			e.tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("configuring %s: %w", name, err)
			}
			total += time.Since(start)
			if i == 0 {
				mappedMB += float64(wl.AS.MappedBytes()) / (1 << 20)
				ptPages += float64(wl.AS.PT.Inventory().TotalTablePages())
			}
		}
		e.tr.end(root)
		setups = append(setups, total.Seconds())
	}

	// Measure: whole passes over the list until the time is up; the first
	// pass always completes so every workload is measured.
	deadline := e.measureUntil()
	var recs []simRecord
	var failures []string
loop:
	for pass := 0; ; pass++ {
		for _, name := range x.names {
			if pass > 0 && !time.Now().Before(deadline) {
				break loop
			}
			out.attempted++
			rec, err := simulate(e, cfg, size, name, datasetSeed(e.seed, pass))
			if err != nil {
				out.failed++
				failures = append(failures, err.Error())
				continue
			}
			out.digests[rec.req] = rec.digest
			recs = append(recs, rec)
		}
	}
	out.expect("every simulation ran and passed its functional check", len(failures) == 0, "%s", strings.Join(failures, "; "))

	// End to end. Runs are time-bounded, so the last pass may be partial:
	// summarise each workload by its median, then combine.
	var rates, waits []float64
	byName := map[string][]simRecord{}
	for _, r := range recs {
		byName[r.name] = append(byName[r.name], r)
	}
	for _, name := range x.names {
		var rate, wait []float64
		for _, r := range byName[name] {
			rate = append(rate, float64(r.st.Cycles)/r.run.Seconds())
			wait = append(wait, float64(r.total())/1e6)
		}
		if len(rate) > 0 {
			rates = append(rates, median(rate))
			waits = append(waits, median(wait))
		}
	}
	out.set("sim_cycles_per_s", geomean(rates), len(recs))
	out.set("latency_ms", sum(waits), len(recs))
	out.setMedian("setup_s", setups)
	out.set("peak_rss_mb", selfMaxRSSMB(), 0)

	// Per layer.
	var builds, news, runs, checks, mallocs, allocs []float64
	var sims []*stats.Sim
	for _, r := range recs {
		builds = append(builds, r.build.Seconds())
		news = append(news, float64(r.newGPU)/1e6)
		runs = append(runs, r.run.Seconds())
		checks = append(checks, r.chk.Seconds())
		mallocs = append(mallocs, r.runMallocs)
		allocs = append(allocs, r.runAllocByte/(1<<20))
		sims = append(sims, r.st)
	}
	out.set("workloads.builds", float64(len(builds)), 0)
	out.set("workloads.build_s", sum(builds), len(builds))
	ms := make([]float64, len(builds))
	for i, b := range builds {
		ms[i] = b * 1000
	}
	out.setMedian("workloads.build_ms_p50", ms)
	out.set("vm.mapped_mb", mappedMB, 0)
	out.set("vm.pt_pages", ptPages, 0)
	out.setMedian("gpu.new_ms", news)
	out.set("gpu.run_s", sum(runs), len(runs))
	out.set("gpu.check_s", sum(checks), len(checks))
	out.setMedian("gpu.run_mallocs", mallocs)
	out.setMedian("gpu.run_alloc_mb", allocs)
	t := addSimStats(out, sims)
	out.set("gpu.ns_per_sim_cycle", ratio(sum(runs)*1e9, float64(t.Cycles)), 0)
	out.set("gpu.ns_per_warp_instr", ratio(sum(runs)*1e9, float64(t.Instructions)), 0)
	return out, nil
}

// simulate builds, runs and checks one workload, timing each step and
// digesting its statistics.
func simulate(e *env, cfg config.Hardware, size workloads.Size, name string, dseed uint64) (simRecord, error) {
	req := fmt.Sprintf("%s@%d", name, dseed)
	// Start from a clean heap, as a fresh process would, so garbage from
	// the previous simulation neither adds GC work to this one nor raises
	// its peak memory.
	runtime.GC()
	root := e.tr.begin(0, "simulation", req)
	defer e.tr.end(root)
	rec := simRecord{name: name, req: req}

	start := time.Now()
	sp := e.tr.begin(root, "workloads.Build", req)
	wl, err := workloads.Build(name, size, cfg.PageShift, dseed)
	e.tr.end(sp)
	rec.build = time.Since(start)
	if err != nil {
		return rec, fmt.Errorf("%s: build: %v", req, err)
	}

	start = time.Now()
	sp = e.tr.begin(root, "gpu.New", req)
	st := &stats.Sim{}
	g, err := gpu.New(cfg, wl.AS, st)
	e.tr.end(sp)
	rec.newGPU = time.Since(start)
	if err != nil {
		return rec, fmt.Errorf("%s: configure: %v", req, err)
	}

	rt0 := readRuntime()
	start = time.Now()
	sp = e.tr.begin(root, "gpu.Run", req)
	_, err = g.Run(wl.Launch)
	e.tr.end(sp)
	rec.run = time.Since(start)
	rt1 := readRuntime()
	rec.runMallocs = rt1.allocObjects - rt0.allocObjects
	rec.runAllocByte = rt1.allocBytes - rt0.allocBytes
	if err != nil {
		return rec, fmt.Errorf("%s: run: %v", req, err)
	}

	start = time.Now()
	sp = e.tr.begin(root, "workload.Check", req)
	if wl.Check != nil {
		err = wl.Check()
	}
	e.tr.end(sp)
	rec.chk = time.Since(start)
	if err != nil {
		return rec, fmt.Errorf("%s: functional check: %v", req, err)
	}
	rec.st = st
	rec.digest, err = digest(st)
	return rec, err
}

// digest is the SHA-256 of a run's complete statistics record: equal
// digests mean identical simulated behaviour.
func digest(st *stats.Sim) (string, error) {
	b, err := json.Marshal(st)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// addSimStats records the simulated-side per-layer counters summed over
// sims and returns the sum.
func addSimStats(out *outcome, sims []*stats.Sim) stats.Sim {
	var t stats.Sim
	for _, s := range sims {
		t.Merge(s)
	}
	n := len(sims)
	out.set("gpu.sim_cycles", float64(t.Cycles), n)
	out.set("gpu.warp_instrs", float64(t.Instructions), n)
	out.set("gpu.mem_instrs", float64(t.MemInstrs), n)
	out.set("gpu.idle_core_cycle_frac", t.IdleFraction(), n)
	out.set("core.tlb_lookups", float64(t.TLBAccesses), n)
	out.set("core.tlb_miss_rate", t.TLBMissRate(), n)
	out.set("core.tlb_hits_under_miss", float64(t.TLBHitUnder), n)
	out.set("core.walks", float64(t.Walks), n)
	out.set("core.walk_refs", float64(t.WalkRefs), n)
	out.set("core.walk_refs_elim_frac", t.WalkRefsEliminated(), n)
	out.set("core.walk_lat_cycles", t.WalkLat.Mean(), n)
	out.set("mem.l1_accesses", float64(t.L1Accesses), n)
	out.set("mem.l1_miss_rate", t.L1MissRate(), n)
	out.set("mem.l2_accesses", float64(t.L2Accesses), n)
	out.set("mem.l2_miss_rate", t.L2MissRate(), n)
	out.set("mem.walk_l2_hit_frac", ratio(float64(t.WalkCacheHits), float64(t.WalkRefs)), n)
	return t
}
