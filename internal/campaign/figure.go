// Expansion into the experiment pipeline's existing currency: a validated
// campaign becomes experiments.Options plus a figure list, so the plan →
// execute → render machinery (dedup by config.Hardware.Key, worker pools,
// byte-identical reports) runs campaigns and flag invocations identically.
package campaign

import (
	"fmt"
	"time"

	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

// HarnessOptions maps the campaign onto the harness options the experiment
// pipeline already consumes. Obs.Deadline, a relative budget in the file,
// is anchored at call time. Validate must have passed (Parse/Load ensure
// it).
func (c *Campaign) HarnessOptions() (experiments.Options, error) {
	size, err := workloads.ParseSize(c.Workloads.Size)
	if err != nil {
		return experiments.Options{}, badField("workloads.size", c.Workloads.Size, err.Error())
	}
	opt := experiments.Options{
		Size:       size,
		Seed:       c.Workloads.Seed,
		Machine:    c.MachineFunc(),
		Workload:   append([]string(nil), c.Workloads.Names...),
		Workers:    c.Run.Workers,
		Checkpoint: c.Run.Checkpoint,
		Sampling:   c.Run.Sampling,
		Obs: experiments.ObsOptions{
			SampleEvery: c.Obs.SampleEvery,
			SampleDir:   c.Obs.SampleDir,
			Watchdog:    c.Obs.Watchdog,
			MaxCycles:   c.Obs.MaxCycles,
		},
	}
	if c.Obs.Deadline > 0 {
		opt.Obs.Deadline = time.Now().Add(c.Obs.Deadline)
	}
	return opt, nil
}

// ExpandFigures expands the campaign's figure list: the named paper
// figures in campaign order, then the sweep (if axes are declared)
// rendered as a figure of its own.
func (c *Campaign) ExpandFigures() ([]experiments.Figure, error) {
	if len(c.Figures) == 0 && len(c.Sweep.Axes) == 0 {
		return nil, badField("figures", c.Figures, "campaign declares neither figures nor sweep axes; nothing for the figure pipeline to run")
	}
	figs := make([]experiments.Figure, 0, len(c.Figures)+1)
	for i, id := range c.Figures {
		f, err := experiments.ByID(id)
		if err != nil {
			return nil, badField(fmt.Sprintf("figures[%d]", i), id, err.Error())
		}
		figs = append(figs, f)
	}
	if len(c.Sweep.Axes) > 0 {
		f, err := c.SweepFigure()
		if err != nil {
			return nil, err
		}
		figs = append(figs, f)
	}
	return figs, nil
}

// SweepFigure renders the campaign's hardware cross-product as one figure:
// a row per workload, a column per sweep point, cells either speedup over
// the campaign machine's no-TLB baseline (sweep.normalize, the default) or
// raw cycle counts. Its RunSpecs flow through the same planner as the paper
// figures, so shared configurations are simulated exactly once.
func (c *Campaign) SweepFigure() (experiments.Figure, error) {
	points, err := c.sweepPoints()
	if err != nil {
		return experiments.Figure{}, err
	}
	names := append([]string(nil), c.Workloads.Names...)
	normalize := c.Sweep.Normalize
	base, err := c.MachineConfig()
	if err != nil {
		return experiments.Figure{}, err
	}
	noTLB := base
	noTLB.MMU = config.MMU{Enabled: false}

	metric := "speedup vs no-TLB"
	if !normalize {
		metric = "cycles"
	}
	return experiments.Figure{
		ID:    "sweep",
		Title: fmt.Sprintf("campaign %s sweep (%s)", c.Name, metric),
		Paper: "Campaign-declared design-space sweep (not a paper figure).",
		Plan: func(h *experiments.Harness) []experiments.RunSpec {
			var specs []experiments.RunSpec
			for _, w := range names {
				if normalize {
					specs = append(specs, h.Spec(w, noTLB))
				}
				for _, pt := range points {
					specs = append(specs, h.Spec(w, pt.cfg))
				}
			}
			return specs
		},
		Run: func(h *experiments.Harness) (string, error) {
			header := []string{"workload"}
			for _, pt := range points {
				header = append(header, pt.label)
			}
			tbl := stats.NewTable(header...)
			for _, w := range names {
				row := []any{w}
				var baseCycles uint64
				if normalize {
					st, err := h.Run(w, noTLB)
					if err != nil {
						return "", err
					}
					baseCycles = st.Cycles
				}
				for _, pt := range points {
					st, err := h.Run(w, pt.cfg)
					if err != nil {
						return "", err
					}
					if normalize {
						if st.Cycles == 0 {
							return "", fmt.Errorf("%s [%s]: zero cycles", w, pt.label)
						}
						row = append(row, float64(baseCycles)/float64(st.Cycles))
					} else {
						row = append(row, st.Cycles)
					}
				}
				tbl.AddRow(row...)
			}
			return tbl.String(), nil
		},
	}, nil
}
