// Package campaign defines the versioned, declarative experiment-campaign
// format: one YAML (or JSON) document naming a hardware matrix, workload
// set, figure fragments, sweep axes, observability budgets and output
// artefacts, replacing ad-hoc CLI flag assemblies for unattended
// design-space sweeps (ROADMAP item 5; the configuration layer is modelled
// on cri-resource-manager's versioned/validated config system).
//
// The lifecycle is parse → validate → normalise → expand:
//
//   - Parse/Load read YAML or JSON (yaml.go) and decode it into a Campaign
//     (decode.go), applying documented defaults.
//   - Validation returns typed *config.FieldError values naming the exact
//     campaign field that is wrong, including every hardware configuration
//     the campaign expands to (config.Hardware.Validate runs on each sweep
//     point up front, before anything simulates).
//   - Normalisation is canonical: Emit renders a parsed campaign in one
//     fixed form — fields in schema order, defaults made explicit, machine
//     overrides sorted and renamed to their canonical Go field paths — and
//     re-parsing that form re-emits it byte-identically (campaign_test.go
//     pins the fixpoint against golden files).
//   - Expansion (figure.go) turns the campaign into the experiment
//     pipeline's existing currency: experiments.Options, named figures, and
//     a sweep Figure whose RunSpecs dedupe by config.Hardware.Key like
//     every other figure.
//
// ApplyFlags (flags.go) overlays a CLI's command line on a campaign, so a
// flag invocation is a campaign too. DESIGN.md section 13 is the
// field-by-field reference, flags included.
package campaign

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"

	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/gpu"
	"gpummu/internal/workloads"
)

// APIVersion is the campaign schema version this package reads and writes.
// Future incompatible revisions will bump the suffix and keep reading old
// versions explicitly; an unknown version is a validation error, not a
// guess.
const APIVersion = "gpummu/v1"

// maxSweepPoints bounds a sweep's cross-product. The committed example
// campaigns expand to at most 6 points; Validate refuses anything larger
// than this before expanding it, since POST /v1/jobs parses documents
// from clients.
const maxSweepPoints = 4096

// Campaign is one declarative experiment campaign.
type Campaign struct {
	// APIVersion must be "gpummu/v1".
	APIVersion string
	// Name identifies the campaign (DNS-label-like: lowercase
	// alphanumerics and interior dashes).
	Name string
	// Description is free-form documentation.
	Description string

	// Machine is the base hardware every run derives from.
	Machine Machine
	// Workloads is the workload set every figure and sweep point runs.
	Workloads WorkloadSet
	// Figures names experiment-figure fragments to reproduce (experiments
	// package IDs; "2" normalises to "fig2").
	Figures []string
	// Sweep declares a custom hardware cross-product rendered as its own
	// figure.
	Sweep Sweep

	// Run controls execution parallelism.
	Run RunOptions
	// Obs attaches per-run observability (sampling, watchdog, budgets).
	Obs Obs
	// Output names report artefacts.
	Output Output
}

// Machine selects a hardware preset and field overrides on top of it.
type Machine struct {
	// Preset is "baseline" (the paper's 30-core section 5.2 machine) or
	// "small" (the scaled-down 4-core test machine).
	Preset string
	// Set maps dotted config.Hardware field paths (case-insensitive on
	// input, canonicalised on emit: "mmu.entries" → "MMU.Entries") to
	// values. Scalars are strings after parsing; Sched.LRUDepthWeights
	// takes a flow list of ints. Enum fields accept their CLI spellings
	// (Sched.Policy: lrr|gto|ccws|ta-ccws|tcws; TBC.Mode:
	// stack|tbc|tlb-tbc).
	Set map[string]any
}

// WorkloadSet names the workloads plus their scale and seed.
type WorkloadSet struct {
	// Names lists registered workloads and/or "trace:<path>" replays.
	// Default: the paper's six.
	Names []string
	// Size is tiny|small|medium|large. Default: small.
	Size string
	// Seed is the dataset construction seed. Default: 1.
	Seed uint64
}

// Sweep is a cross-product over hardware fields, first axis outermost.
type Sweep struct {
	// Normalize reports speedup over the campaign machine's no-TLB
	// baseline when true (the default), raw cycle counts when false.
	Normalize bool
	// Axes are swept in order; the expansion is their cross-product
	// applied on top of Machine.
	Axes []Axis
}

// Axis is one swept hardware field.
type Axis struct {
	// Field is a dotted config.Hardware path (same syntax as Machine.Set).
	Field string
	// Values are the points along the axis, in sweep order.
	Values []string
}

// RunOptions mirrors the executor flags.
type RunOptions struct {
	// Workers is the -j worker pool size; 0 means GOMAXPROCS.
	Workers int
	// Checkpoint enables checkpointed warm starts: sweep points sharing a
	// workload restore from one post-build snapshot instead of rebuilding
	// (experiments.Executor.Checkpoint). Reports are byte-identical either
	// way; default false.
	Checkpoint bool
	// Sampling executes every run under SMARTS-style interval sampling
	// (experiments.Options.Sampling, the -sampleplan flag): per interval,
	// Warmup detailed-but-unmeasured cycles, Detail measured cycles, then a
	// fast-forward window worth FastForward cycles executed functionally.
	// Rendered Cycles/Instructions become extrapolated estimates; ratios
	// come from the measured windows. The zero value keeps runs exact.
	Sampling gpu.SamplePlan
}

// Obs mirrors experiments.ObsOptions with a relative deadline.
type Obs struct {
	SampleEvery uint64        // cycles between samples; 0 disables
	SampleDir   string        // per-run CSV artefact directory
	Watchdog    uint64        // no-retirement abort window; 0 disables
	MaxCycles   uint64        // per-run cycle budget; 0 unbounded
	Deadline    time.Duration // wall-clock budget for the whole campaign
}

// Output names campaign artefacts.
type Output struct {
	// Report is the rendered report's path; "" writes to stdout.
	Report string
}

// Load reads, parses, validates and normalises the campaign at path.
func Load(path string) (*Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	c, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	return c, nil
}

// Parse parses a YAML or JSON campaign document, applies defaults, and
// validates. The returned campaign is normalised: Emit renders it
// canonically.
func Parse(data []byte) (*Campaign, error) {
	tree, err := parseTree(data)
	if err != nil {
		return nil, err
	}
	c, err := decodeCampaign(tree)
	if err != nil {
		return nil, err
	}
	c.applyDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := c.normalise(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewAdhoc builds a validated, normalised campaign from job-shaped
// submission fields — the form the job server's POST /v1/jobs accepts when
// a client submits (workloads, machine) directly instead of a campaign
// document. Zero-valued arguments take the documented campaign defaults
// (preset "baseline", the paper's six workloads, size "small", seed 1,
// sweep.normalize true, as Parse gives a document that omits it).
// The returned campaign declares no figures or sweep axes: it runs just its
// workload set, exactly like a gpusim invocation.
func NewAdhoc(name string, workloadNames []string, size string, seed uint64, preset string, set map[string]any, run RunOptions) (*Campaign, error) {
	if name == "" {
		name = "adhoc"
	}
	c := &Campaign{
		APIVersion: APIVersion,
		Name:       name,
		Machine:    Machine{Preset: preset, Set: set},
		Workloads:  WorkloadSet{Names: workloadNames, Size: size, Seed: seed},
		Sweep:      Sweep{Normalize: true},
		Run:        run,
	}
	c.applyDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := c.normalise(); err != nil {
		return nil, err
	}
	return c, nil
}

// applyDefaults fills unset fields with their documented defaults.
func (c *Campaign) applyDefaults() {
	if c.Machine.Preset == "" {
		c.Machine.Preset = "baseline"
	}
	if c.Machine.Set == nil {
		c.Machine.Set = map[string]any{}
	}
	if len(c.Workloads.Names) == 0 {
		c.Workloads.Names = workloads.PaperSet()
	}
	if c.Workloads.Size == "" {
		c.Workloads.Size = "small"
	}
	if c.Workloads.Seed == 0 {
		c.Workloads.Seed = 1
	}
}

var nameRe = regexp.MustCompile(`^[a-z0-9]([a-z0-9-]*[a-z0-9])?$`)

// badField builds the typed validation failure every check returns.
func badField(field string, value any, msg string) error {
	return &config.FieldError{Field: field, Value: value, Msg: msg}
}

// Validate checks the whole campaign, including every hardware
// configuration it expands to. Every failure is a *config.FieldError whose
// Field names the campaign path ("machine.set.MMU.Entries",
// "sweep.axes[1].field", ...).
func (c *Campaign) Validate() error {
	if c.APIVersion != APIVersion {
		return badField("apiVersion", c.APIVersion, fmt.Sprintf("must be %q", APIVersion))
	}
	if !nameRe.MatchString(c.Name) {
		return badField("name", c.Name, "must be a lowercase alphanumeric-and-dashes label")
	}
	if _, err := presetFunc(c.Machine.Preset); err != nil {
		return badField("machine.preset", c.Machine.Preset, "must be \"baseline\" or \"small\"")
	}
	if _, err := c.MachineConfig(); err != nil {
		return err
	}
	for i, w := range c.Workloads.Names {
		if err := workloads.Resolve(w); err != nil {
			return badField(fmt.Sprintf("workloads.names[%d]", i), w, err.Error())
		}
	}
	if _, err := workloads.ParseSize(c.Workloads.Size); err != nil {
		return badField("workloads.size", c.Workloads.Size, "must be tiny, small, medium or large")
	}
	for i, id := range c.Figures {
		if _, err := experiments.ByID(normaliseFigureID(id)); err != nil {
			return badField(fmt.Sprintf("figures[%d]", i), id, err.Error())
		}
	}
	// Size the cross-product before expanding it: a few short lines of
	// axes can otherwise spell millions of configurations.
	points, dims := 1, make([]string, len(c.Sweep.Axes))
	for i, ax := range c.Sweep.Axes {
		if len(ax.Values) == 0 {
			return badField(fmt.Sprintf("sweep.axes[%d].values", i), ax.Values, "must list at least one value")
		}
		points = min(points*len(ax.Values), maxSweepPoints+1)
		dims[i] = strconv.Itoa(len(ax.Values))
	}
	if points > maxSweepPoints {
		return badField("sweep.axes", strings.Join(dims, "x"),
			fmt.Sprintf("the cross-product must have at most %d points", maxSweepPoints))
	}
	if _, err := c.sweepPoints(); err != nil {
		return err
	}
	// A campaign with neither figures nor sweep axes is still valid: gpusim
	// runs just its workload set. ExpandFigures rejects it instead, so only
	// the figure pipeline insists on having something to render.
	if c.Run.Workers < 0 {
		return badField("run.workers", c.Run.Workers, "must be >= 0 (0 = all host cores)")
	}
	if err := c.Run.Sampling.Validate(); err != nil {
		return badField("run.sampling", c.Run.Sampling.String(),
			"enabled plans need detail > 0 and fastforward > 0")
	}
	if c.Obs.SampleDir != "" && c.Obs.SampleEvery == 0 {
		return badField("obs.sampleDir", c.Obs.SampleDir, "requires obs.sampleEvery > 0")
	}
	if c.Obs.Deadline < 0 {
		return badField("obs.deadline", c.Obs.Deadline.String(), "must be >= 0")
	}
	return nil
}

// normalise rewrites the campaign into its canonical spelling: figure IDs
// gain the "fig" prefix, machine-override and sweep-axis field paths take
// their canonical Go names, and override values are reformatted by the
// target field's type. Validate must have passed.
func (c *Campaign) normalise() error {
	for i, id := range c.Figures {
		c.Figures[i] = normaliseFigureID(id)
	}
	set := make(map[string]any, len(c.Machine.Set))
	base, err := presetFunc(c.Machine.Preset)
	if err != nil {
		return err
	}
	hw := base()
	for path, val := range c.Machine.Set {
		canon, canonVal, err := setField(&hw, path, val)
		if err != nil {
			return badField("machine.set."+path, val, err.Error())
		}
		set[canon] = canonVal
	}
	c.Machine.Set = set
	for i := range c.Sweep.Axes {
		ax := &c.Sweep.Axes[i]
		for j, v := range ax.Values {
			canon, canonVal, err := setField(&hw, ax.Field, v)
			if err != nil {
				return badField(fmt.Sprintf("sweep.axes[%d]", i), v, err.Error())
			}
			s, ok := canonVal.(string)
			if !ok {
				return badField(fmt.Sprintf("sweep.axes[%d].field", i), ax.Field, "list-valued fields cannot be sweep axes")
			}
			ax.Field = canon
			ax.Values[j] = s
		}
	}
	return nil
}

// normaliseFigureID maps accepted figure spellings ("2", "fig2") to the
// experiments package's canonical IDs.
func normaliseFigureID(id string) string {
	if _, err := experiments.ByID(id); err == nil {
		return id
	}
	return "fig" + id
}
