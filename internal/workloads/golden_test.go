package workloads

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"gpummu/internal/ref"
	"gpummu/internal/vm"
)

var update = flag.Bool("update", false, "rewrite golden files")

const buildImageGolden = "testdata/build_image.golden"

// buildCase is one (workload, size, page size) point of the image golden.
type buildCase struct {
	name  string
	size  Size
	shift uint
}

func (c buildCase) String() string {
	pages := "4k"
	if c.shift == vm.PageShift2M {
		pages = "2m"
	}
	return fmt.Sprintf("%s/%s/%s", c.name, c.size, pages)
}

// goldenBuilds lists every registered workload and one trace replay at
// tiny on 4 KB and 2 MB pages, plus the paper six at small on 4 KB pages.
func goldenBuilds() []buildCase {
	tiny := append(Names(), TracePrefix+sampleCSV)
	var cases []buildCase
	for _, shift := range []uint{vm.PageShift4K, vm.PageShift2M} {
		for _, n := range tiny {
			cases = append(cases, buildCase{n, SizeTiny, shift})
		}
	}
	for _, n := range PaperSet() {
		cases = append(cases, buildCase{n, SizeSmall, vm.PageShift4K})
	}
	return cases
}

// imageLine summarises a freshly built workload: its memory image and page
// table digests, how many physical frames the build materialised, how much
// virtual memory it mapped, and its launch geometry and parameters.
func imageLine(c buildCase, w *Workload) string {
	as := w.AS
	var b strings.Builder
	fmt.Fprintf(&b, "%s mem=%016x pt=%016x backed=%d mapped=%d grid=%d block=%d params=",
		c, ref.MemDigest(as), ref.PageTableDigest(as.Mem, as.PT.CR3()),
		as.Mem.BackedPages(), as.MappedBytes(), w.Launch.Grid, w.Launch.BlockDim)
	for i, p := range w.Launch.Params {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%#x", p)
	}
	return b.String()
}

// TestBuildImageGolden pins what every build leaves in simulated memory:
// the bytes, the page tables, the frames materialised and the launch. A
// change to how datasets are written must leave all of it identical.
func TestBuildImageGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range goldenBuilds() {
		w, err := Build(c.name, c.size, c.shift, 1)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		got.WriteString(imageLine(c, w))
		got.WriteByte('\n')
	}
	if *update {
		if err := os.WriteFile(buildImageGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(buildImageGolden)
	if err != nil {
		t.Fatalf("golden: %v (rerun with -update)", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d golden lines, want %d", len(gl)-1, len(wl)-1)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("build image differs:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}

// BenchmarkBuild times one build of each paper workload at small on 4 KB
// pages: dataset generation, page mapping and the dataset writes.
func BenchmarkBuild(b *testing.B) {
	for _, name := range PaperSet() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(name, SizeSmall, vm.PageShift4K, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
