// The canonical emitter: one fixed rendering for every campaign.
//
// Emit writes all fields explicitly, in schema order, with defaults spelled
// out, machine overrides sorted by canonical path, and one quoting rule —
// so Parse(Emit(c)) re-emits byte-identically (the normalisation fixpoint
// campaign_test.go pins with golden files).
package campaign

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// bareRe admits scalars that need no quoting. Anything else (empty strings,
// colons as in "trace:...", spaces, YAML punctuation) is double-quoted.
var bareRe = regexp.MustCompile(`^[A-Za-z0-9_./=-]+$`)

// scalar renders one scalar with the canonical quoting rule.
func scalar(s string) string {
	if bareRe.MatchString(s) {
		return s
	}
	return strconv.Quote(s)
}

// flowList renders a flow list of scalars.
func flowList(items []string) string {
	if len(items) == 0 {
		return "[]"
	}
	quoted := make([]string, len(items))
	for i, s := range items {
		quoted[i] = scalar(s)
	}
	return "[" + strings.Join(quoted, ", ") + "]"
}

// Emit renders the campaign canonically. The campaign must be normalised
// (which Parse and Load guarantee).
func (c *Campaign) Emit() []byte {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	w("apiVersion: %s\n", scalar(c.APIVersion))
	w("name: %s\n", scalar(c.Name))
	w("description: %s\n", scalar(c.Description))

	w("machine:\n")
	w("  preset: %s\n", scalar(c.Machine.Preset))
	if len(c.Machine.Set) == 0 {
		w("  set: {}\n")
	} else {
		w("  set:\n")
		paths := make([]string, 0, len(c.Machine.Set))
		for p := range c.Machine.Set {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			switch v := c.Machine.Set[p].(type) {
			case []string:
				w("    %s: %s\n", p, flowList(v))
			default:
				w("    %s: %s\n", p, scalar(fmt.Sprintf("%v", v)))
			}
		}
	}

	w("workloads:\n")
	w("  names: %s\n", flowList(c.Workloads.Names))
	w("  size: %s\n", scalar(c.Workloads.Size))
	w("  seed: %d\n", c.Workloads.Seed)

	w("figures: %s\n", flowList(c.Figures))

	w("sweep:\n")
	w("  normalize: %v\n", c.Sweep.Normalize)
	if len(c.Sweep.Axes) == 0 {
		w("  axes: []\n")
	} else {
		w("  axes:\n")
		for _, ax := range c.Sweep.Axes {
			w("    - field: %s\n", scalar(ax.Field))
			w("      values: %s\n", flowList(ax.Values))
		}
	}

	w("run:\n")
	w("  workers: %d\n", c.Run.Workers)
	w("  checkpoint: %v\n", c.Run.Checkpoint)
	w("  sampling:\n")
	w("    warmup: %d\n", c.Run.Sampling.Warmup)
	w("    detail: %d\n", c.Run.Sampling.Detail)
	w("    fastforward: %d\n", c.Run.Sampling.FastForward)
	w("    warmtlb: %v\n", c.Run.Sampling.WarmTLB)

	w("obs:\n")
	w("  sampleEvery: %d\n", c.Obs.SampleEvery)
	w("  sampleDir: %s\n", scalar(c.Obs.SampleDir))
	w("  watchdog: %d\n", c.Obs.Watchdog)
	w("  maxCycles: %d\n", c.Obs.MaxCycles)
	w("  deadline: %s\n", scalar(c.Obs.Deadline.String()))

	w("output:\n")
	w("  report: %s\n", scalar(c.Output.Report))

	return []byte(b.String())
}
