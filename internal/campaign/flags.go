// Command-line overlay: the one place a CLI flag gets its meaning.
//
// cmd/gpusim and cmd/experiments each start from a base campaign — the
// -campaign file, or the CLI's own defaults — and ApplyFlags overwrites
// the fields that the flags set on the command line name. A flag left
// unset never applies, so a flag's default only documents the base.
// DESIGN.md section 13.2 lists which flag sets which field.
package campaign

import (
	"flag"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"

	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/gpu"
	"gpummu/internal/workloads"
)

// mmuPresets are the -mmu spellings. Each replaces the whole MMU block.
var mmuPresets = map[string]func() config.MMU{
	"none":  func() config.MMU { return config.MMU{} },
	"naive": func() config.MMU { return config.NaiveMMU(4) },
	"nonblocking": func() config.MMU {
		m := config.NaiveMMU(4)
		m.HitsUnderMiss, m.CacheOverlap = true, true
		return m
	},
	"augmented": config.AugmentedMMU,
	"ideal":     config.MMU{}.Ideal,
}

// schedWeights are the weights -sched writes beside the policy: the
// paper's best TA-CCWS weighting (TLB misses 4:1, figure 16) and its best
// TCWS (8 VTA entries per warp, LRU-depth weights 1,2,4,8; figures 17-18).
var schedWeights = map[string]map[string]any{
	"ta-ccws": {"Sched.TLBMissWeight": "4"},
	"tcws": {
		"Sched.TLBMissWeight":     "4",
		"Sched.VTAEntriesPerWarp": "8",
		"Sched.LRUDepthWeights":   []string{"1", "2", "4", "8"},
	},
}

// tbcAliases and pageShifts map the remaining flag spellings onto
// machine.set values.
var (
	tbcAliases = map[string]string{"off": "stack", "tlb-aware": "tlb-tbc"}
	pageShifts = map[string]string{"4k": "12", "2m": "21"}
)

// flagFields maps each flag name to the campaign field it sets. ApplyFlags
// walks the table in order, so -machine lands before the machine flags
// and -mmu before the flags that tune its preset.
var flagFields = []struct {
	name  string
	apply func(c *Campaign, v string) error
}{
	{"machine", func(c *Campaign, v string) error {
		if _, err := presetFunc(v); err != nil {
			return err
		}
		c.Machine = Machine{Preset: v, Set: map[string]any{}}
		return nil
	}},
	{"mmu", applyMMU},
	{"ports", mmuField("Ports")},
	{"entries", mmuField("Entries")},
	{"ptws", mmuField("NumPTWs")},
	{"sharedtlb", mmuField("SharedTLBEntries")},
	{"pwc", mmuField("PWCEntries")},
	{"software-walks", mmuField("SoftwareWalks")},
	{"sched", func(c *Campaign, v string) error {
		if err := c.set("Sched.Policy", v); err != nil {
			return err
		}
		for path, w := range schedWeights[v] {
			c.Machine.Set[path] = w
		}
		return nil
	}},
	{"tbc", func(c *Campaign, v string) error {
		if alias, ok := tbcAliases[v]; ok {
			v = alias
		}
		return c.set("TBC.Mode", v)
	}},
	{"pages", func(c *Campaign, v string) error {
		shift, ok := pageShifts[v]
		if !ok {
			return fmt.Errorf("unknown page size %q (have 4k, 2m)", v)
		}
		return c.set("PageShift", shift)
	}},
	{"cores", func(c *Campaign, v string) error {
		if v == "0" { // 0 keeps the base machine's core count
			return nil
		}
		return c.set("NumCores", v)
	}},
	{"workload", applyNames},
	{"workloads", applyNames},
	{"size", func(c *Campaign, v string) error { c.Workloads.Size = v; return nil }},
	{"seed", func(c *Campaign, v string) error {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return err
		}
		if seed == 0 {
			return fmt.Errorf("must be >= 1 (a campaign reads seed 0 as unset)")
		}
		c.Workloads.Seed = seed
		return nil
	}},
	{"fig", func(c *Campaign, v string) error {
		if v == "all" {
			c.Figures = nil
			for _, f := range experiments.All() {
				c.Figures = append(c.Figures, f.ID)
			}
		} else {
			c.Figures = splitList(v)
		}
		c.Sweep.Axes = nil
		return nil
	}},
	{"j", func(c *Campaign, v string) (err error) { c.Run.Workers, err = strconv.Atoi(v); return err }},
	{"checkpoint", func(c *Campaign, v string) (err error) { c.Run.Checkpoint, err = strconv.ParseBool(v); return err }},
	{"sampleplan", func(c *Campaign, v string) (err error) {
		c.Run.Sampling = gpu.SamplePlan{}
		if v != "" {
			c.Run.Sampling, err = gpu.ParseSamplePlan(v)
		}
		return err
	}},
	{"sample", func(c *Campaign, v string) (err error) {
		c.Obs.SampleEvery, err = strconv.ParseUint(v, 10, 64)
		return err
	}},
	{"sampledir", func(c *Campaign, v string) error { c.Obs.SampleDir = v; return nil }},
	{"watchdog", func(c *Campaign, v string) (err error) {
		c.Obs.Watchdog, err = strconv.ParseUint(v, 10, 64)
		return err
	}},
	{"maxcycles", func(c *Campaign, v string) (err error) {
		c.Obs.MaxCycles, err = strconv.ParseUint(v, 10, 64)
		return err
	}},
	{"deadline", func(c *Campaign, v string) (err error) { c.Obs.Deadline, err = time.ParseDuration(v); return err }},
}

// ApplyFlags overwrites c's fields with the flags set on fs, in the
// flagFields order, then validates and normalises the result like Parse.
// Flags the table does not name, such as -json or -v, belong to the CLI
// and are skipped. c must come from Parse, Load or NewAdhoc.
func (c *Campaign) ApplyFlags(fs *flag.FlagSet) error {
	set := map[string]string{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = f.Value.String() })
	for _, ff := range flagFields {
		if v, ok := set[ff.name]; ok {
			if err := ff.apply(c, v); err != nil {
				return fmt.Errorf("-%s: %w", ff.name, err)
			}
		}
	}
	c.applyDefaults()
	if err := c.Validate(); err != nil {
		return err
	}
	return c.normalise()
}

// set writes one machine.set entry in its canonical spelling, checked as a
// campaign file's would be.
func (c *Campaign) set(path string, val any) error {
	var hw config.Hardware
	canon, canonVal, err := setField(&hw, path, val)
	if err != nil {
		return err
	}
	c.Machine.Set[canon] = canonVal
	return nil
}

// applyMMU replaces the machine's MMU block with the named preset: every
// MMU entry goes, and each field where the preset differs from the base
// machine's MMU becomes a new entry.
func applyMMU(c *Campaign, v string) error {
	preset, ok := mmuPresets[v]
	if !ok {
		return fmt.Errorf("unknown MMU %q (have none, naive, nonblocking, augmented, ideal)", v)
	}
	base, err := presetFunc(c.Machine.Preset)
	if err != nil {
		return err
	}
	for path := range c.Machine.Set {
		if strings.HasPrefix(path, "MMU.") {
			delete(c.Machine.Set, path)
		}
	}
	m, b := reflect.ValueOf(preset()), reflect.ValueOf(base().MMU)
	for i := 0; i < m.NumField(); i++ {
		if f := m.Field(i).Interface(); f != b.Field(i).Interface() {
			if err := c.set("MMU."+m.Type().Field(i).Name, fmt.Sprint(f)); err != nil {
				return err
			}
		}
	}
	return nil
}

// mmuField returns the apply function of a flag that tunes one field of
// the machine's MMU. A machine without an MMU has nothing to tune, so the
// flag is ignored there. Turning software walks on also charges the OS
// handler's 300 cycles per walk.
func mmuField(field string) func(*Campaign, string) error {
	return func(c *Campaign, v string) error {
		hw, err := c.MachineConfig()
		if err != nil || !hw.MMU.Enabled {
			return err
		}
		if field == "SoftwareWalks" && v == "true" {
			if err := c.set("MMU.SoftwareWalkOverhead", "300"); err != nil {
				return err
			}
		}
		return c.set("MMU."+field, v)
	}
}

// applyNames reads a workload list: "all" is every registered workload,
// anything else a comma-separated list; an empty list falls back to the
// campaign default.
func applyNames(c *Campaign, v string) error {
	if v == "all" {
		c.Workloads.Names = workloads.Names()
	} else {
		c.Workloads.Names = splitList(v)
	}
	return nil
}

// splitList splits a comma-separated flag value, dropping blank items.
func splitList(v string) []string {
	var out []string
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}
