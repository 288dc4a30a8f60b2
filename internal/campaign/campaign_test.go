package campaign

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/gpu"
	"gpummu/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden pins the canonical form: every testdata input parses, emits
// byte-identically to its golden file, and the golden file is a fixpoint
// (parsing it re-emits the same bytes).
func TestGolden(t *testing.T) {
	inputs, err := filepath.Glob("testdata/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	jsons, err := filepath.Glob("testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, jsons...)
	if len(inputs) == 0 {
		t.Fatal("no testdata inputs")
	}
	for _, in := range inputs {
		if strings.HasSuffix(in, ".golden.yaml") {
			continue
		}
		t.Run(filepath.Base(in), func(t *testing.T) {
			c, err := Load(in)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			got := c.Emit()
			golden := strings.TrimSuffix(in, filepath.Ext(in)) + ".golden.yaml"
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("golden: %v (rerun with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("emit mismatch vs %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
			// Fixpoint: the canonical form re-parses and re-emits itself.
			c2, err := Parse(got)
			if err != nil {
				t.Fatalf("reparse canonical form: %v", err)
			}
			if again := c2.Emit(); !bytes.Equal(again, got) {
				t.Errorf("canonical form is not a fixpoint:\n--- first ---\n%s--- second ---\n%s", got, again)
			}
		})
	}
}

// FuzzCampaignParse feeds arbitrary bytes to Parse, the entry point of
// campaign files and of POST /v1/jobs documents: it must never panic, and
// every document it accepts must emit a canonical form that re-parses and
// re-emits byte-identically.
func FuzzCampaignParse(f *testing.F) {
	for _, pattern := range []string{"testdata/*", "../../examples/campaigns/*"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return
		}
		first := c.Emit()
		c2, err := Parse(first)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, first)
		}
		if second := c2.Emit(); !bytes.Equal(second, first) {
			t.Fatalf("canonical form is not a fixpoint:\n--- first ---\n%s--- second ---\n%s", first, second)
		}
	})
}

// TestValidationErrors pins the typed-error contract: every invalid
// campaign fails with a *config.FieldError naming the exact field.
func TestValidationErrors(t *testing.T) {
	// valid() builds a minimal valid document, which each case then breaks.
	valid := "apiVersion: gpummu/v1\nname: ok\nfigures: [fig2]\n"
	cases := []struct {
		name  string
		doc   string
		field string
	}{
		{"api version", "apiVersion: gpummu/v2\nname: ok\nfigures: [fig2]\n", "apiVersion"},
		{"missing api version", "name: ok\nfigures: [fig2]\n", "apiVersion"},
		{"bad name", "apiVersion: gpummu/v1\nname: \"Bad Name\"\nfigures: [fig2]\n", "name"},
		{"unknown top key", valid + "frobnicate: 1\n", "frobnicate"},
		{"bad preset", valid + "machine: huge\n", "machine.preset"},
		{"unknown machine key", valid + "machine:\n  cores: 4\n", "machine.cores"},
		{"unknown hardware field", valid + "machine:\n  set:\n    mmu.size: 12\n", "machine.set.mmu.size"},
		{"bad hardware value", valid + "machine:\n  set:\n    mmu.entries: lots\n", "machine.set.mmu.entries"},
		{"list on scalar field", valid + "machine:\n  set:\n    mmu.entries: [1, 2]\n", "machine.set.mmu.entries"},
		{"invalid machine", valid + "machine:\n  set:\n    mmu.enabled: true\n", "MMU.Assoc"},
		{"unknown workload", valid + "workloads: [bfs, nfs]\n", "workloads.names[1]"},
		{"missing trace file", valid + "workloads: [\"trace:testdata/nope.csv\"]\n", "workloads.names[0]"},
		{"bad size", valid + "workloads:\n  size: huge\n", "workloads.size"},
		{"bad seed", valid + "workloads:\n  seed: -3\n", "workloads.seed"},
		{"unknown figure", "apiVersion: gpummu/v1\nname: ok\nfigures: [fig99]\n", "figures[0]"},
		{"empty axis values", valid + "sweep:\n  axes:\n    - field: MMU.Entries\n      values: []\n", "sweep.axes[0].values"},
		{"missing axis field", valid + "sweep:\n  axes:\n    - values: [64]\n", "sweep.axes[0].field"},
		{"bad axis field", valid + "sweep:\n  axes:\n    - field: mmu.size\n      values: [64]\n", "sweep.axes[0]"},
		{"bad normalize", valid + "sweep:\n  normalize: maybe\n", "sweep.normalize"},
		{"bad workers", valid + "run:\n  workers: -1\n", "run.workers"},
		{"workers not int", valid + "run:\n  workers: many\n", "run.workers"},
		{"bad par", valid + "run:\n  par: two\n", "run.par"},
		{"sampling no detail", valid + "run:\n  sampling:\n    warmup: 100\n    fastforward: 1000\n", "run.sampling"},
		{"sampling no fastforward", valid + "run:\n  sampling:\n    detail: 100\n", "run.sampling"},
		{"sampling bad shorthand", valid + "run:\n  sampling: fast\n", "run.sampling"},
		{"sampling bad warm token", valid + "run:\n  sampling: \"1,2,3,cold\"\n", "run.sampling"},
		{"sampling unknown key", valid + "run:\n  sampling:\n    detail: 100\n    cooldown: 5\n", "run.sampling.cooldown"},
		{"sampling bad warmtlb", valid + "run:\n  sampling:\n    detail: 1\n    fastforward: 1\n    warmtlb: maybe\n", "run.sampling.warmtlb"},
		{"sampleDir without sampleEvery", valid + "obs:\n  sampleDir: out\n", "obs.sampleDir"},
		{"bad deadline", valid + "obs:\n  deadline: soon\n", "obs.deadline"},
		{"negative deadline", valid + "obs:\n  deadline: -5m\n", "obs.deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted:\n%s", tc.doc)
			}
			var fe *config.FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("error is not a *config.FieldError: %v", err)
			}
			if fe.Field != tc.field {
				t.Errorf("Field = %q, want %q (err: %v)", fe.Field, tc.field, err)
			}
		})
	}
}

// TestExpandFiguresRejectsEmpty pins that workload-only campaigns (valid
// for gpusim) are refused by the figure pipeline with a typed error.
func TestExpandFiguresRejectsEmpty(t *testing.T) {
	c, err := Parse([]byte("apiVersion: gpummu/v1\nname: ok\n"))
	if err != nil {
		t.Fatalf("workload-only campaign should validate: %v", err)
	}
	_, err = c.ExpandFigures()
	var fe *config.FieldError
	if !errors.As(err, &fe) || fe.Field != "figures" {
		t.Fatalf("ExpandFigures error = %v, want FieldError on figures", err)
	}
}

// TestParseErrors pins the YAML-subset parser's line-numbered diagnostics.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error
	}{
		{"empty", "", "empty document"},
		{"tabs", "\tname: x\n", "tabs"},
		{"duplicate key", "name: a\nname: b\n", "duplicate key"},
		{"missing space", "name:x\n", "missing space"},
		{"bad indent", "machine:\n  preset: small\n   set: {}\n", "indent"},
		{"unterminated list", "figures: [fig2\n", "unterminated flow list"},
		{"empty flow item", "figures: [fig2,, fig3]\n", "empty item"},
		{"flow mapping", "machine: {preset: small}\n", "flow mappings are not supported"},
		{"list in mapping", "machine:\n  preset: small\n- oops\n", "list item inside a mapping"},
		{"bad json", "{\"name\": }\n", "json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestNormaliseCanonicalises pins the override spelling rules: field paths
// fold to their Go names, enum values to their CLI spellings, and figure
// IDs gain the "fig" prefix.
func TestNormaliseCanonicalises(t *testing.T) {
	doc := "apiVersion: gpummu/v1\nname: canon\nfigures: [2, fig10]\n" +
		"machine:\n  preset: small\n  set:\n    SCHED.POLICY: gto\n    tbc.mode: tbc\n" +
		"sweep:\n  axes:\n    - field: sched.policy\n      values: [lrr, gto]\n"
	c, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Figures; got[0] != "fig2" || got[1] != "fig10" {
		t.Errorf("figures = %v, want [fig2 fig10]", got)
	}
	if v, ok := c.Machine.Set["Sched.Policy"]; !ok || v != "gto" {
		t.Errorf("Set[Sched.Policy] = %v (set: %v)", v, c.Machine.Set)
	}
	if v, ok := c.Machine.Set["TBC.Mode"]; !ok || v != "tbc" {
		t.Errorf("Set[TBC.Mode] = %v (set: %v)", v, c.Machine.Set)
	}
	if ax := c.Sweep.Axes[0]; ax.Field != "Sched.Policy" {
		t.Errorf("axis field = %q, want Sched.Policy", ax.Field)
	}
	hw, err := c.MachineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if hw.Sched.Policy != config.SchedGTO || hw.TBC.Mode != config.DivTBC {
		t.Errorf("overrides not applied: policy=%v mode=%v", hw.Sched.Policy, hw.TBC.Mode)
	}
}

// TestSweepPoints pins the cross-product: first axis outermost, labels
// carrying canonical paths, every point validated.
func TestSweepPoints(t *testing.T) {
	doc := "apiVersion: gpummu/v1\nname: sweep\nmachine:\n  preset: small\n  set:\n" +
		"    mmu.enabled: true\n    mmu.assoc: 4\n    mmu.entries: 128\n    mmu.ports: 4\n" +
		"    mmu.numptws: 1\n    mmu.mshrs: 32\n    mmu.walkconcurrency: 4\n" +
		"sweep:\n  axes:\n    - field: mmu.entries\n      values: [64, 128]\n" +
		"    - field: mmu.ports\n      values: [2, 4]\n"
	c, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := c.sweepPoints()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"MMU.Entries=64 MMU.Ports=2", "MMU.Entries=64 MMU.Ports=4",
		"MMU.Entries=128 MMU.Ports=2", "MMU.Entries=128 MMU.Ports=4",
	}
	if len(pts) != len(want) {
		t.Fatalf("%d points, want %d", len(pts), len(want))
	}
	for i, pt := range pts {
		if pt.label != want[i] {
			t.Errorf("point %d label = %q, want %q", i, pt.label, want[i])
		}
	}
	if pts[0].cfg.MMU.Entries != 64 || pts[0].cfg.MMU.Ports != 2 {
		t.Errorf("point 0 config not applied: %+v", pts[0].cfg.MMU)
	}
	// An axis value that breaks config validation is caught up front.
	bad := strings.Replace(doc, "values: [64, 128]", "values: [63]", 1)
	if _, err := Parse([]byte(bad)); err == nil {
		t.Error("sweep with invalid point accepted")
	}
}

// TestCampaignMatchesFlagHarness is the refactor's core guarantee: a
// campaign-driven report is byte-identical to the classic flag-style
// harness invocation it replaces, across differing worker counts.
func TestCampaignMatchesFlagHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	doc := "apiVersion: gpummu/v1\nname: fig2-tiny\nmachine: small\n" +
		"workloads:\n  names: [bfs, memcached]\n  size: tiny\n" +
		"figures: [fig2]\nrun:\n  workers: 3\n  par: 2\n"
	c, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := c.HarnessOptions()
	if err != nil {
		t.Fatal(err)
	}
	figs, err := c.ExpandFigures()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := experiments.RunFigures(experiments.New(&got, opt), figs); err != nil {
		t.Fatalf("campaign run: %v", err)
	}

	fig2, err := experiments.ByID("fig2")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	h := experiments.New(&want, experiments.Options{
		Size:     workloads.SizeTiny,
		Seed:     1,
		Machine:  config.SmallTest,
		Workload: []string{"bfs", "memcached"},
		Workers:  1,
	})
	if err := experiments.RunFigures(h, []experiments.Figure{fig2}); err != nil {
		t.Fatalf("flag-style run: %v", err)
	}
	if got.String() != want.String() {
		t.Errorf("campaign report differs from flag-style report:\n--- campaign ---\n%s--- flags ---\n%s",
			got.String(), want.String())
	}
}

// TestSweepFigureEndToEnd runs a small campaign sweep through the full
// pipeline and checks the rendered table carries the point labels.
func TestSweepFigureEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	doc := "apiVersion: gpummu/v1\nname: mini-sweep\nmachine:\n  preset: small\n  set:\n" +
		"    mmu.enabled: true\n    mmu.assoc: 4\n    mmu.entries: 128\n    mmu.ports: 4\n" +
		"    mmu.numptws: 1\n    mmu.mshrs: 32\n    mmu.walkconcurrency: 4\n" +
		"workloads:\n  names: [bfs]\n  size: tiny\n" +
		"sweep:\n  axes:\n    - field: mmu.entries\n      values: [64, 128]\n"
	c, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := c.HarnessOptions()
	if err != nil {
		t.Fatal(err)
	}
	figs, err := c.ExpandFigures()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || figs[0].ID != "sweep" {
		t.Fatalf("figures = %v, want one sweep figure", figs)
	}
	var out bytes.Buffer
	if err := experiments.RunFigures(experiments.New(&out, opt), figs); err != nil {
		t.Fatalf("sweep run: %v", err)
	}
	for _, want := range []string{"MMU.Entries=64", "MMU.Entries=128", "bfs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("sweep report missing %q:\n%s", want, out.String())
		}
	}
}

// TestHarnessOptions pins the campaign → Options mapping.
func TestHarnessOptions(t *testing.T) {
	doc := "apiVersion: gpummu/v1\nname: opts\nfigures: [fig2]\n" +
		"workloads:\n  names: [kmeans]\n  size: medium\n  seed: 9\n" +
		"run:\n  workers: 5\n  sampling:\n    warmup: 500\n    detail: 2000\n    fastforward: 20000\n" +
		"obs:\n  sampleEvery: 1000\n  watchdog: 2000\n  maxCycles: 3000\n  deadline: 1h\n"
	c, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := c.HarnessOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Size != workloads.SizeMedium || opt.Seed != 9 || opt.Workers != 5 {
		t.Errorf("options mapped wrong: %+v", opt)
	}
	if len(opt.Workload) != 1 || opt.Workload[0] != "kmeans" {
		t.Errorf("workloads = %v", opt.Workload)
	}
	if opt.Obs.SampleEvery != 1000 || opt.Obs.Watchdog != 2000 || opt.Obs.MaxCycles != 3000 {
		t.Errorf("obs mapped wrong: %+v", opt.Obs)
	}
	if want := (gpu.SamplePlan{Warmup: 500, Detail: 2000, FastForward: 20000}); opt.Sampling != want {
		t.Errorf("sampling mapped wrong: %+v", opt.Sampling)
	}
	if opt.Obs.Deadline.IsZero() {
		t.Error("deadline was not anchored")
	}
	if hw := opt.Machine(); hw.Key() != config.Baseline().Key() {
		t.Errorf("machine is not the baseline preset")
	}
}
