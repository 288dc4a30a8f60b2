package config

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// presetKeys names every preset machine, each under every MMU preset, plus
// the scheduler, compaction and page-size variants the figures run.
func presetKeys() [][2]string {
	var out [][2]string
	for _, m := range []struct {
		name string
		hw   func() Hardware
	}{{"baseline", Baseline}, {"small", SmallTest}} {
		for _, mmu := range []struct {
			name string
			mmu  MMU
		}{
			{"none", m.hw().MMU}, {"naive3", NaiveMMU(3)}, {"naive4", NaiveMMU(4)},
			{"augmented", AugmentedMMU()}, {"ideal", MMU{}.Ideal()},
		} {
			hw := m.hw()
			hw.MMU = mmu.mmu
			out = append(out, [2]string{m.name + "/" + mmu.name, hw.Key()})
		}
	}
	for _, v := range []struct {
		name string
		mut  func(*Hardware)
	}{
		{"baseline/ccws", func(h *Hardware) { h.Sched.Policy = SchedCCWS }},
		{"baseline/ta-ccws", func(h *Hardware) { h.Sched.Policy = SchedTACCWS; h.Sched.TLBMissWeight = 4 }},
		{"baseline/tcws-lru", func(h *Hardware) { h.Sched.Policy = SchedTCWS; h.Sched.LRUDepthWeights = []int{1, 2, 4, 8} }},
		{"baseline/tbc", func(h *Hardware) { h.TBC.Mode = DivTBC }},
		{"baseline/tlb-tbc-1", func(h *Hardware) { h.TBC.Mode = DivTLBTBC; h.TBC.CPMBits = 1 }},
		{"baseline/2m", func(h *Hardware) { h.PageShift = 21 }},
		{"baseline/extensions", func(h *Hardware) {
			h.MMU = AugmentedMMU()
			h.MMU.SharedTLBEntries, h.MMU.SharedTLBLatency, h.MMU.PWCEntries = 512, 10, 64
		}},
		{"baseline/software", func(h *Hardware) {
			h.MMU = NaiveMMU(4)
			h.MMU.SoftwareWalks, h.MMU.SoftwareWalkOverhead = true, 300
		}},
		{"baseline/negative", func(h *Hardware) { h.L1Latency = -1; h.Sched.LRUDepthWeights = []int{-3} }},
	} {
		h := Baseline()
		v.mut(&h)
		out = append(out, [2]string{v.name, h.Key()})
	}
	return out
}

// TestPresetKeyGolden pins the Key string of every preset byte for byte:
// gpusimd's result store is keyed by these strings, so any change in how
// they are spelled orphans every stored result.
func TestPresetKeyGolden(t *testing.T) {
	const golden = "testdata/keys.golden"
	want := map[string]string{}
	if !*update {
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("golden: %v (rerun with -update)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			name, key, _ := strings.Cut(line, " ")
			want[name] = key
		}
	}
	var b strings.Builder
	keys := presetKeys()
	for _, k := range keys {
		b.WriteString(k[0] + " " + k[1] + "\n")
		if !*update && want[k[0]] != k[1] {
			t.Errorf("%s:\n got %s\nwant %s", k[0], k[1], want[k[0]])
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(want) != len(keys) {
		t.Errorf("golden has %d presets, test has %d", len(want), len(keys))
	}
}
