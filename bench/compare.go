package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"text/tabwriter"
)

// minPairs is the fewest parent/change pairs a gain may be claimed on.
const minPairs = 10

// loadDocs reads every result document in dir.
func loadDocs(dir string) ([]*document, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var docs []*document
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var d document
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if d.Schema == "" {
			continue // not a result document
		}
		docs = append(docs, &d)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no result documents", dir)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].Seed < docs[j].Seed })
	return docs, nil
}

// verdict applies the small-sandbox rule to one metric on one workload: a
// and b are the parent's and the change's values, paired by index.
func verdict(m metric, a, b []float64) string {
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	medA, medB := median(a), median(b)
	q1a, _, q3a := quartiles(a)
	q1b, _, q3b := quartiles(b)

	n := min(len(a), len(b))
	wins := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	diff := medB - medA
	if diff < 0 {
		diff = -diff
	}
	if n >= minPairs && float64(wins) >= 0.9*float64(n) && better(medB, medA) && diff > q3a-q1a {
		return "improved"
	}
	worse := ratio(medB-medA, medA)
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return "worse"
	}
	spread := max(ratio(q3a-q1a, medA), ratio(q3b-q1b, medB))
	if spread > m.Bound && !allBetter(b, a, better) {
		return "unresolved"
	}
	return "no worse"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// runCompare prints a verdict for every (end-to-end metric, workload)
// pair between the documents in dirA (parent) and dirB (change), and
// flags any simulated-statistics digest that differs. It returns the exit
// code: 0, 1 for a regression or a digest change, 2 when the documents may
// not be compared.
func runCompare(dirA, dirB string, w io.Writer) int {
	a, err := loadDocs(dirA)
	if err == nil {
		var b []*document
		b, err = loadDocs(dirB)
		if err == nil {
			return compareDocs(a, b, w)
		}
	}
	fmt.Fprintf(w, "compare: %v\n", err)
	return 2
}

func compareDocs(a, b []*document, w io.Writer) int {
	ref := a[0].Stamp
	for _, d := range append(append([]*document(nil), a...), b...) {
		if d.Stamp.BenchVersion != ref.BenchVersion {
			fmt.Fprintf(w, "compare: refusing: benchmark versions differ (%s vs %s)\n", ref.BenchVersion, d.Stamp.BenchVersion)
			return 2
		}
		if d.Stamp.host() != ref.host() {
			fmt.Fprintf(w, "compare: refusing: hosts differ (%s vs %s)\n", ref.host(), d.Stamp.host())
			return 2
		}
	}
	group := func(docs []*document) map[string][]*document {
		g := map[string][]*document{}
		for _, d := range docs {
			if d.Trace == 0 {
				g[d.Workload] = append(g[d.Workload], d)
			}
		}
		return g
	}
	ga, gb := group(a), group(b)
	fmt.Fprintf(w, "host: %s\nA: %s (%d documents)  B: %s (%d documents)\n\n", ref.host(), shaOf(a), len(a), shaOf(b), len(b))

	code := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tB/A\tverdict")
	for _, wl := range sortedKeys(ga) {
		da, db := ga[wl], gb[wl]
		if len(db) == 0 {
			continue
		}
		if !reflect.DeepEqual(da[0].Params, db[0].Params) {
			fmt.Fprintf(w, "compare: refusing: %s parameters differ\n", wl)
			return 2
		}
		for _, m := range endToEnd {
			va, vb := values(da, m.Name), values(db, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(m, va, vb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.3f\t%s\n", wl, m.Name, spreadString(va), spreadString(vb), ratio(median(vb), median(va)), v)
		}
	}
	tw.Flush()

	changed := 0
	for _, wl := range sortedKeys(ga) {
		da, db := digests(ga[wl]), digests(gb[wl])
		for _, k := range sortedKeys(da) {
			if len(da[k]) > 1 || len(db[k]) > 1 {
				fmt.Fprintf(w, "DIGEST NOT REPRODUCIBLE %s %s\n", wl, k)
				changed++
				continue
			}
			if len(db[k]) == 1 && !reflect.DeepEqual(da[k], db[k]) {
				fmt.Fprintf(w, "DIGEST CHANGED %s %s\n", wl, k)
				changed++
			}
		}
	}
	if changed > 0 {
		code = 1
	} else {
		fmt.Fprintln(w, "\nsimulated-statistics digests: identical on every shared run")
	}
	return code
}

func values(docs []*document, name string) []float64 {
	var out []float64
	for _, d := range docs {
		if v, ok := d.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// digests collects, per run key, the distinct digests the documents hold.
func digests(docs []*document) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, d := range docs {
		for k, v := range d.Digests {
			if out[k] == nil {
				out[k] = map[string]bool{}
			}
			out[k][v] = true
		}
	}
	return out
}

func spreadString(xs []float64) string {
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}

// shaOf names the commits a document set was measured at.
func shaOf(docs []*document) string {
	seen := map[string]bool{}
	for _, d := range docs {
		s := d.Stamp.GitSHA
		if d.Stamp.GitDirty {
			s += "+dirty"
		}
		seen[s] = true
	}
	keys := sortedKeys(seen)
	if len(keys) == 1 {
		return keys[0]
	}
	return fmt.Sprint(keys)
}
