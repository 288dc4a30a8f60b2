package main

import "testing"

// TestDefaultSampleFile: -sample's default series file lands in the
// working directory, named by the workload or by a trace's file name.
func TestDefaultSampleFile(t *testing.T) {
	for name, want := range map[string]string{
		"bfs": "bfs.samples.csv",
		"trace:internal/workloads/testdata/wiki_requests.csv": "wiki_requests.csv.samples.csv",
		"trace:requests.jsonl":                                "requests.jsonl.samples.csv",
	} {
		if got := defaultSampleFile(name); got != want {
			t.Errorf("defaultSampleFile(%q) = %q, want %q", name, got, want)
		}
	}
}
