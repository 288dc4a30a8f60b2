package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"gpummu/internal/experiments"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

// campaignFigures is the figure set one campaign renders: every figure, or
// figure 2 alone at smoke scale.
func campaignFigures(o options) ([]experiments.Figure, error) {
	if !o.smoke {
		return experiments.All(), nil
	}
	f, err := experiments.ByID("fig2")
	return []experiments.Figure{f}, err
}

func campaignParams(o options) map[string]any {
	figs := "all"
	if o.smoke {
		figs = "fig2"
	}
	return map[string]any{
		"figures": figs, "size": "tiny", "machine": "baseline", "workers": runtime.NumCPU(),
		"loop": "closed, one campaign at a time, dataset seed advancing per campaign",
	}
}

const campaignSetups = 20

// campaignRun is what one executed simulation of a campaign reported.
type campaignRun struct {
	wall time.Duration
	st   *stats.Sim
	err  error
}

// runCampaign renders whole campaigns back to back, each at the next
// dataset seed, until the time is up.
func runCampaign(e *env) (*outcome, error) {
	out := newOutcome()
	figs, err := campaignFigures(e.options)
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()

	// Set-up, New plus PlanFigures, takes about 2 ms: time it
	// campaignSetups times so its median is steady.
	var setups []float64
	sp := e.tr.begin(0, "setup", "setup")
	for i := 0; i < campaignSetups; i++ {
		start := time.Now()
		h := experiments.New(io.Discard, experiments.Options{Size: workloads.SizeTiny, Seed: datasetSeed(e.seed, 0), Workers: workers})
		h.PlanFigures(figs)
		setups = append(setups, time.Since(start).Seconds())
	}
	e.tr.end(sp)

	var plans, executes, renders, waits, rates, utils []float64
	var runs []campaignRun
	var failures []string
	deadline := e.measureUntil()
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		dseed := datasetSeed(e.seed, k)
		req := fmt.Sprintf("campaign@%d", dseed)
		runtime.GC() // a clean heap per campaign, as a fresh process has
		root := e.tr.begin(0, "campaign", req)

		var mu sync.Mutex
		var mine []campaignRun
		var execSpan int
		// The executor's Simulate hook sees every simulation the campaign
		// starts; the benchmark only times it and keeps the result.
		hook := func(spec experiments.RunSpec, run func(experiments.RunSpec) *experiments.RunResult) *experiments.RunResult {
			sp := e.tr.begin(execSpan, "experiments.run", fmt.Sprintf("%s@%d", spec, dseed))
			res := run(spec)
			e.tr.end(sp)
			mu.Lock()
			mine = append(mine, campaignRun{wall: res.Wall, st: res.Stats, err: res.Err})
			mu.Unlock()
			return res
		}

		var report bytes.Buffer
		start := time.Now()
		sp := e.tr.begin(root, "experiments.New", req)
		h := experiments.New(&report, experiments.Options{
			Size: workloads.SizeTiny, Seed: dseed, Workers: workers, Simulate: hook,
		})
		e.tr.end(sp)
		planStart := time.Now()
		sp = e.tr.begin(root, "experiments.PlanFigures", req)
		plan := h.PlanFigures(figs)
		e.tr.end(sp)
		planned := time.Now()

		execSpan = e.tr.begin(root, "experiments.Execute", req)
		ran := h.Execute(plan)
		e.tr.end(execSpan)
		executed := time.Now()

		sp = e.tr.begin(root, "experiments.RunFigures", req)
		renderErr := experiments.RunFigures(h, figs)
		e.tr.end(sp)
		done := time.Now()
		e.tr.end(root)

		out.attempted += len(mine)
		var cycles float64
		var busy time.Duration
		for _, r := range mine {
			if r.err != nil {
				out.failed++
				failures = append(failures, fmt.Sprintf("%s: %v", req, r.err))
				continue
			}
			cycles += float64(r.st.Cycles)
			busy += r.wall
		}
		if ran != plan.Len() {
			failures = append(failures, fmt.Sprintf("%s: ran %d of %d planned runs", req, ran, plan.Len()))
		}
		if renderErr != nil {
			failures = append(failures, fmt.Sprintf("%s: render: %v", req, renderErr))
		}
		out.digests[req] = sha(report.Bytes())
		runs = append(runs, mine...)

		execS := executed.Sub(planned).Seconds()
		plans = append(plans, float64(planned.Sub(planStart))/1e6)
		executes = append(executes, execS)
		renders = append(renders, float64(done.Sub(executed))/1e6)
		waits = append(waits, float64(done.Sub(start))/1e6)
		rates = append(rates, cycles/execS)
		utils = append(utils, busy.Seconds()/(float64(workers)*execS))
	}
	out.expect("every campaign ran its whole plan and rendered without error", len(failures) == 0, "%v", failures)

	out.setMedian("sim_cycles_per_s", rates)
	out.setMedian("latency_ms", waits)
	out.setMedian("setup_s", setups)
	out.set("peak_rss_mb", selfMaxRSSMB(), 0)

	out.setMedian("experiments.plan_ms", plans)
	out.setMedian("experiments.execute_s", executes)
	out.setMedian("experiments.render_ms", renders)
	out.setMedian("experiments.worker_util", utils)
	var walls []float64
	var sims []*stats.Sim
	for _, r := range runs {
		if r.err == nil {
			walls = append(walls, float64(r.wall)/1e6)
			sims = append(sims, r.st)
		}
	}
	out.set("experiments.runs", float64(len(runs)), 0)
	// Every run builds its workload once.
	out.set("workloads.builds", float64(len(runs)), 0)
	out.setMedian("experiments.run_ms_p50", walls)
	out.setTail("experiments.run_ms_p99", walls, 0.99)
	addSimStats(out, sims)
	return out, nil
}
