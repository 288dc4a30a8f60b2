package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// MetricKind distinguishes the registry's metric types.
type MetricKind uint8

const (
	// KindCounter is a monotonically increasing count; Merge sums it.
	KindCounter MetricKind = iota
	// KindGauge is a point-in-time measurement; Merge sums it too (per-core
	// gauges use disjoint names, so summing is the identity in practice and
	// keeps the merge rule uniform and commutative).
	KindGauge
)

// String implements fmt.Stringer.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Label is one key=value dimension of a metric name.
type Label struct {
	Key   string
	Value string
}

// LabelInt builds an integer-valued label (the common case: core, slice,
// walker indices).
func LabelInt(key string, v int) Label {
	return Label{Key: key, Value: fmt.Sprintf("%d", v)}
}

// Name renders the canonical metric name: base{k1=v1,k2=v2}. Labels keep
// the order given — callers pass them hierarchically (core before walker) so
// the canonical name doubles as a stable sort key.
func Name(base string, labels ...Label) string {
	if len(labels) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Metric is one named value in a registry. Counters carry uint64 counts;
// gauges carry float64 measurements.
type Metric struct {
	Name string
	Kind MetricKind
	U    uint64  // counter value
	F    float64 // gauge value
}

// Add increments a counter by n.
func (m *Metric) Add(n uint64) { m.U += n }

// Inc increments a counter by one.
func (m *Metric) Inc() { m.U++ }

// Set overwrites a counter's value (snapshot-style collection).
func (m *Metric) Set(n uint64) { m.U = n }

// SetFloat overwrites a gauge's value.
func (m *Metric) SetFloat(f float64) { m.F = f }

// Value returns the counter value.
func (m *Metric) Value() uint64 { return m.U }

// Float returns the gauge value.
func (m *Metric) Float() float64 { return m.F }

// Registry is an insertion-ordered collection of named metrics. It replaces
// ad-hoc struct-field plumbing for the hierarchically labelled breakdowns
// (per-core, per-L2-slice, per-walker) that the flat stats.Sim aggregate
// cannot express. It is not safe for concurrent use; the simulator fills it
// once, at the end of a run.
type Registry struct {
	order []string
	m     map[string]*Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*Metric)}
}

// get returns the named metric, creating it with the given kind on first
// use. Asking for an existing name with a different kind panics: that is a
// wiring bug, not a runtime condition.
func (r *Registry) get(name string, kind MetricKind) *Metric {
	if m, ok := r.m[name]; ok {
		if m.Kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, m.Kind, kind))
		}
		return m
	}
	m := &Metric{Name: name, Kind: kind}
	r.m[name] = m
	r.order = append(r.order, name)
	return m
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Metric { return r.get(name, KindCounter) }

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Metric { return r.get(name, KindGauge) }

// Lookup returns the named metric without creating it.
func (r *Registry) Lookup(name string) (*Metric, bool) {
	m, ok := r.m[name]
	return m, ok
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.order) }

// Each visits every metric in registration order.
func (r *Registry) Each(fn func(*Metric)) {
	for _, name := range r.order {
		fn(r.m[name])
	}
}

// Merge folds another registry into r: counters and gauges sum name-wise,
// and names unknown to r are appended in o's registration order. Summation
// is commutative and exact (uint64 counter arithmetic), so merging shard
// registries — in any order — reproduces exactly what a single registry
// would have accumulated; this is the same contract stats.Sim.Merge gives
// the per-core statistics shards.
func (r *Registry) Merge(o *Registry) {
	for _, name := range o.order {
		om := o.m[name]
		m := r.get(name, om.Kind)
		m.U += om.U
		m.F += om.F
	}
}

// WriteText renders one "name kind value" line per metric in registration
// order — a stable, diffable dump for CLIs and tests.
func (r *Registry) WriteText(w io.Writer) error {
	for _, name := range r.order {
		m := r.m[name]
		var err error
		switch m.Kind {
		case KindGauge:
			_, err = fmt.Fprintf(w, "%s gauge %g\n", m.Name, m.F)
		default:
			_, err = fmt.Fprintf(w, "%s counter %d\n", m.Name, m.U)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// metricJSON is the wire form of one metric.
type metricJSON struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Counter *uint64  `json:"counter,omitempty"`
	Gauge   *float64 `json:"gauge,omitempty"`
}

// WriteJSON renders the registry as a JSON array in registration order.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make([]metricJSON, 0, len(r.order))
	for _, name := range r.order {
		m := r.m[name]
		mj := metricJSON{Name: m.Name, Kind: m.Kind.String()}
		switch m.Kind {
		case KindGauge:
			f := m.F
			mj.Gauge = &f
		default:
			u := m.U
			mj.Counter = &u
		}
		out = append(out, mj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
