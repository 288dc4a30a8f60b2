// Decoding from the generic parse tree into Campaign, with typed
// *config.FieldError failures naming the offending campaign path.
package campaign

import (
	"fmt"
	"strconv"
	"time"

	"gpummu/internal/gpu"
)

// decodeCampaign walks the tree. Unknown keys are errors: a misspelled
// field must fail loudly, not silently fall back to a default.
func decodeCampaign(root node) (*Campaign, error) {
	m, err := wantMap(root, "")
	if err != nil {
		return nil, err
	}
	c := &Campaign{Sweep: Sweep{Normalize: true}}
	if err := checkKeys(m, "", "apiVersion", "name", "description", "machine",
		"workloads", "figures", "sweep", "run", "obs", "output"); err != nil {
		return nil, err
	}
	if c.APIVersion, err = optStr(m, "apiVersion", ""); err != nil {
		return nil, err
	}
	if c.Name, err = optStr(m, "name", ""); err != nil {
		return nil, err
	}
	if c.Description, err = optStr(m, "description", ""); err != nil {
		return nil, err
	}
	if err := decodeMachine(m["machine"], &c.Machine); err != nil {
		return nil, err
	}
	if err := decodeWorkloads(m["workloads"], &c.Workloads); err != nil {
		return nil, err
	}
	if c.Figures, err = optStrList(m, "figures", ""); err != nil {
		return nil, err
	}
	if err := decodeSweep(m["sweep"], &c.Sweep); err != nil {
		return nil, err
	}
	if err := decodeRun(m["run"], &c.Run); err != nil {
		return nil, err
	}
	if err := decodeObs(m["obs"], &c.Obs); err != nil {
		return nil, err
	}
	if err := decodeOutput(m["output"], &c.Output); err != nil {
		return nil, err
	}
	return c, nil
}

// decodeMachine accepts a {preset, set} mapping or a bare preset name.
func decodeMachine(n node, out *Machine) error {
	if n == nil {
		return nil
	}
	if s, ok := n.(string); ok { // shorthand: machine: small
		out.Preset = s
		return nil
	}
	m, err := wantMap(n, "machine")
	if err != nil {
		return err
	}
	if err := checkKeys(m, "machine.", "preset", "set"); err != nil {
		return err
	}
	if out.Preset, err = optStr(m, "preset", "machine."); err != nil {
		return err
	}
	if sn, ok := m["set"]; ok {
		sm, err := wantMap(sn, "machine.set")
		if err != nil {
			return err
		}
		out.Set = make(map[string]any, len(sm))
		for k, v := range sm {
			switch t := v.(type) {
			case string:
				out.Set[k] = t
			case []node:
				l, ok := asStringList(t)
				if !ok {
					return badField("machine.set."+k, v, "list values must be scalars")
				}
				out.Set[k] = l
			default:
				return badField("machine.set."+k, v, "must be a scalar or a list")
			}
		}
	}
	return nil
}

// decodeWorkloads accepts a {names, size, seed} mapping or the bare names
// list shorthand.
func decodeWorkloads(n node, out *WorkloadSet) error {
	if n == nil {
		return nil
	}
	if _, ok := n.([]node); ok { // shorthand: workloads: [bfs, kmeans]
		names, err := strList(n, "workloads")
		if err != nil {
			return err
		}
		out.Names = names
		return nil
	}
	m, err := wantMap(n, "workloads")
	if err != nil {
		return err
	}
	if err := checkKeys(m, "workloads.", "names", "size", "seed"); err != nil {
		return err
	}
	if out.Names, err = optStrList(m, "names", "workloads."); err != nil {
		return err
	}
	if out.Size, err = optStr(m, "size", "workloads."); err != nil {
		return err
	}
	if out.Seed, err = optUint(m, "seed", "workloads."); err != nil {
		return err
	}
	return nil
}

// decodeSweep fills {normalize, axes}.
func decodeSweep(n node, out *Sweep) error {
	if n == nil {
		return nil
	}
	if l, ok := n.([]node); ok { // shorthand: sweep is just the axes list
		return decodeAxes(l, out)
	}
	m, err := wantMap(n, "sweep")
	if err != nil {
		return err
	}
	if err := checkKeys(m, "sweep.", "normalize", "axes"); err != nil {
		return err
	}
	if v, ok := m["normalize"]; ok {
		b, err := wantBool(v, "sweep.normalize")
		if err != nil {
			return err
		}
		out.Normalize = b
	}
	if v, ok := m["axes"]; ok {
		l, err := wantList(v, "sweep.axes")
		if err != nil {
			return err
		}
		return decodeAxes(l, out)
	}
	return nil
}

// decodeAxes fills the axis list.
func decodeAxes(l []node, out *Sweep) error {
	for i, an := range l {
		path := fmt.Sprintf("sweep.axes[%d]", i)
		am, err := wantMap(an, path)
		if err != nil {
			return err
		}
		if err := checkKeys(am, path+".", "field", "values"); err != nil {
			return err
		}
		var ax Axis
		if ax.Field, err = optStr(am, "field", path+"."); err != nil {
			return err
		}
		if ax.Field == "" {
			return badField(path+".field", "", "must name a hardware field")
		}
		if vn, ok := am["values"]; ok {
			if ax.Values, err = strList(vn, path+".values"); err != nil {
				return err
			}
		}
		out.Axes = append(out.Axes, ax)
	}
	return nil
}

// decodeRun fills {workers, checkpoint, sampling}. It also accepts par, the
// retired count of goroutines that ticked cores inside one simulation, so
// that campaign files and stored job manifests written while it existed
// still parse; par must be an integer and has no effect.
func decodeRun(n node, out *RunOptions) error {
	if n == nil {
		return nil
	}
	m, err := wantMap(n, "run")
	if err != nil {
		return err
	}
	if err := checkKeys(m, "run.", "workers", "par", "checkpoint", "sampling"); err != nil {
		return err
	}
	if out.Workers, err = optInt(m, "workers", "run."); err != nil {
		return err
	}
	if _, err = optInt(m, "par", "run."); err != nil {
		return err
	}
	if out.Checkpoint, err = optBool(m, "checkpoint", "run."); err != nil {
		return err
	}
	if sn, ok := m["sampling"]; ok {
		if err := decodeSampling(sn, &out.Sampling); err != nil {
			return err
		}
	}
	return nil
}

// decodeSampling accepts a {warmup, detail, fastforward, warmtlb} mapping
// or the -sampleplan flag's scalar shorthand "warmup,detail,fastforward[,warm]".
func decodeSampling(n node, out *gpu.SamplePlan) error {
	if s, ok := n.(string); ok { // shorthand: sampling: "1000,5000,50000"
		p, err := gpu.ParseSamplePlan(s)
		if err != nil {
			return badField("run.sampling", s, "must be warmup,detail,fastforward[,warm]")
		}
		*out = p
		return nil
	}
	m, err := wantMap(n, "run.sampling")
	if err != nil {
		return err
	}
	if err := checkKeys(m, "run.sampling.", "warmup", "detail", "fastforward", "warmtlb"); err != nil {
		return err
	}
	if out.Warmup, err = optUint(m, "warmup", "run.sampling."); err != nil {
		return err
	}
	if out.Detail, err = optUint(m, "detail", "run.sampling."); err != nil {
		return err
	}
	if out.FastForward, err = optUint(m, "fastforward", "run.sampling."); err != nil {
		return err
	}
	if out.WarmTLB, err = optBool(m, "warmtlb", "run.sampling."); err != nil {
		return err
	}
	return nil
}

// decodeObs fills the observability block.
func decodeObs(n node, out *Obs) error {
	if n == nil {
		return nil
	}
	m, err := wantMap(n, "obs")
	if err != nil {
		return err
	}
	if err := checkKeys(m, "obs.", "sampleEvery", "sampleDir", "watchdog", "maxCycles", "deadline"); err != nil {
		return err
	}
	if out.SampleEvery, err = optUint(m, "sampleEvery", "obs."); err != nil {
		return err
	}
	if out.SampleDir, err = optStr(m, "sampleDir", "obs."); err != nil {
		return err
	}
	if out.Watchdog, err = optUint(m, "watchdog", "obs."); err != nil {
		return err
	}
	if out.MaxCycles, err = optUint(m, "maxCycles", "obs."); err != nil {
		return err
	}
	if v, ok := m["deadline"]; ok {
		s, err := wantStr(v, "obs.deadline")
		if err != nil {
			return err
		}
		d, err := time.ParseDuration(s)
		if err != nil {
			return badField("obs.deadline", s, "must be a duration like 10m or 1h30m")
		}
		out.Deadline = d
	}
	return nil
}

// decodeOutput fills {report}.
func decodeOutput(n node, out *Output) error {
	if n == nil {
		return nil
	}
	m, err := wantMap(n, "output")
	if err != nil {
		return err
	}
	if err := checkKeys(m, "output.", "report"); err != nil {
		return err
	}
	if out.Report, err = optStr(m, "report", "output."); err != nil {
		return err
	}
	return nil
}

// ---- generic tree accessors ----

func wantMap(n node, path string) (map[string]node, error) {
	m, ok := n.(map[string]node)
	if !ok {
		return nil, badField(orRoot(path), n, "must be a mapping")
	}
	return m, nil
}

func wantList(n node, path string) ([]node, error) {
	l, ok := n.([]node)
	if !ok {
		return nil, badField(orRoot(path), n, "must be a list")
	}
	return l, nil
}

func wantStr(n node, path string) (string, error) {
	s, ok := n.(string)
	if !ok {
		return "", badField(orRoot(path), n, "must be a scalar")
	}
	return s, nil
}

func wantBool(n node, path string) (bool, error) {
	s, err := wantStr(n, path)
	if err != nil {
		return false, err
	}
	b, err := strconv.ParseBool(s)
	if err != nil {
		return false, badField(path, s, "must be true or false")
	}
	return b, nil
}

func orRoot(path string) string {
	if path == "" {
		return "(document)"
	}
	return path
}

// checkKeys rejects keys outside the schema.
func checkKeys(m map[string]node, prefix string, allowed ...string) error {
	for k := range m {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			return badField(prefix+k, nil, fmt.Sprintf("unknown field (have %v)", allowed))
		}
	}
	return nil
}

func optStr(m map[string]node, key, prefix string) (string, error) {
	v, ok := m[key]
	if !ok {
		return "", nil
	}
	return wantStr(v, prefix+key)
}

func optBool(m map[string]node, key, prefix string) (bool, error) {
	v, ok := m[key]
	if !ok {
		return false, nil
	}
	return wantBool(v, prefix+key)
}

func optInt(m map[string]node, key, prefix string) (int, error) {
	v, ok := m[key]
	if !ok {
		return 0, nil
	}
	s, err := wantStr(v, prefix+key)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, badField(prefix+key, s, "must be an integer")
	}
	return n, nil
}

func optUint(m map[string]node, key, prefix string) (uint64, error) {
	v, ok := m[key]
	if !ok {
		return 0, nil
	}
	s, err := wantStr(v, prefix+key)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, badField(prefix+key, s, "must be a non-negative integer")
	}
	return n, nil
}

func strList(n node, path string) ([]string, error) {
	l, err := wantList(n, path)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(l))
	for i, e := range l {
		s, ok := e.(string)
		if !ok {
			return nil, badField(fmt.Sprintf("%s[%d]", path, i), e, "must be a scalar")
		}
		out[i] = s
	}
	return out, nil
}

func optStrList(m map[string]node, key, prefix string) ([]string, error) {
	v, ok := m[key]
	if !ok {
		return nil, nil
	}
	return strList(v, prefix+key)
}
