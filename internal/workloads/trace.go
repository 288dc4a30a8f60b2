package workloads

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// TracePrefix is the workload-name scheme for request-trace replays:
// "trace:<path>" builds a workload that replays the CSV or JSONL request
// trace at <path> (relative to the process working directory) through the
// memcached-style key-value probe kernel. Campaign files and both CLIs
// accept trace references anywhere a workload name is expected.
const TracePrefix = "trace:"

// traceRecord is one request from a trace file.
//
// CSV traces have columns key,op,size (a header row with those names is
// skipped; op and size may be omitted). JSONL traces (.jsonl/.ndjson) hold
// one {"key": ..., "op": ..., "size": ...} object per line. op defaults to
// "get"; size (the stored value size in bytes) defaults to 0 and only
// matters for "set" records, where it perturbs the stored value so the
// functional check covers it.
type traceRecord struct {
	Key  string `json:"key"`
	Op   string `json:"op"`
	Size int    `json:"size"`
}

// maxTraceRecords bounds how much of a trace is ingested, so pointing a
// campaign at a multi-gigabyte production trace cannot exhaust host memory:
// the replay cycles through the ingested window anyway.
const maxTraceRecords = 4 << 20

// parseTrace reads a request trace. The format is chosen by extension:
// .jsonl/.ndjson parse as JSON lines, everything else as CSV.
func parseTrace(path string) ([]traceRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []traceRecord
	switch strings.ToLower(filepath.Ext(path)) {
	case ".jsonl", ".ndjson":
		recs, err = parseTraceJSONL(f)
	default:
		recs, err = parseTraceCSV(f)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: empty trace", path)
	}
	return recs, nil
}

// parseTraceCSV parses key[,op[,size]] rows, skipping a key/op/size header.
func parseTraceCSV(r io.Reader) ([]traceRecord, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // op and size are optional per row
	cr.TrimLeadingSpace = true
	cr.Comment = '#'
	var recs []traceRecord
	for line := 1; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		if line == 1 && len(row) > 0 && strings.EqualFold(strings.TrimSpace(row[0]), "key") {
			continue // header row
		}
		rec, err := recordFromRow(row)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		recs = append(recs, rec)
		if len(recs) >= maxTraceRecords {
			return recs, nil
		}
	}
}

// recordFromRow validates one CSV row.
func recordFromRow(row []string) (traceRecord, error) {
	rec := traceRecord{Op: "get"}
	if len(row) == 0 || strings.TrimSpace(row[0]) == "" {
		return rec, fmt.Errorf("empty key")
	}
	rec.Key = strings.TrimSpace(row[0])
	if len(row) > 1 && strings.TrimSpace(row[1]) != "" {
		rec.Op = strings.ToLower(strings.TrimSpace(row[1]))
	}
	if len(row) > 2 && strings.TrimSpace(row[2]) != "" {
		n, err := strconv.Atoi(strings.TrimSpace(row[2]))
		if err != nil || n < 0 {
			return rec, fmt.Errorf("bad size %q", row[2])
		}
		rec.Size = n
	}
	if err := checkOp(rec.Op); err != nil {
		return rec, err
	}
	return rec, nil
}

// parseTraceJSONL parses one JSON object per non-blank line.
func parseTraceJSONL(r io.Reader) ([]traceRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var recs []traceRecord
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		rec := traceRecord{Op: "get"}
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		rec.Op = strings.ToLower(rec.Op)
		if rec.Key == "" {
			return nil, fmt.Errorf("line %d: empty key", line)
		}
		if rec.Size < 0 {
			return nil, fmt.Errorf("line %d: negative size", line)
		}
		if err := checkOp(rec.Op); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		recs = append(recs, rec)
		if len(recs) >= maxTraceRecords {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// checkOp admits the memcached verbs the replay models.
func checkOp(op string) error {
	switch op {
	case "get", "set", "delete":
		return nil
	}
	return fmt.Errorf("unknown op %q (have get, set, delete)", op)
}

// hashKey folds a trace key into the nonzero 64-bit key the probe kernel
// stores and compares.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64() | 1
}

// buildTraceFile returns a Builder replaying the trace at path.
//
// The replay reproduces the paper's memcached methodology with the trace's
// own key popularity instead of a synthetic Zipf draw: "set" records
// populate an open-chaining hash table (a later set or delete of the same
// key rewrites or removes it, last writer wins), and then every record —
// get, set and delete alike touch the table on the real server — probes its
// chain in trace order. Keys that were never stored walk their whole bucket
// chain and miss, exactly like a real cache miss. The request stream cycles
// through the trace until it fills the per-Size request budget, so small
// traces still generate enough traffic to pressure the TLB while the
// relative key frequencies stay production-shaped.
func buildTraceFile(path string) Builder {
	return func(env *Env) (*Workload, error) {
		recs, err := parseTrace(path)
		if err != nil {
			return nil, err
		}
		return buildTraceReplay(env, recs)
	}
}

// buildTraceReplay constructs the replay workload from parsed records.
func buildTraceReplay(env *Env, recs []traceRecord) (*Workload, error) {
	// Population: apply sets and deletes in trace order, last writer wins.
	// The stored value folds the key hash with the set's value size so the
	// functional check proves the kernel returned this set's payload.
	values := make(map[uint64]uint64)
	var order []uint64 // first-set order, for deterministic table layout
	for _, r := range recs {
		k := hashKey(r.Key)
		switch r.Op {
		case "set":
			if _, ok := values[k]; !ok {
				order = append(order, k)
			}
			values[k] = k ^ (uint64(r.Size) * 0x9E3779B97F4A7C15) ^ 0xC0FFEE
		case "delete":
			delete(values, k)
		}
	}

	// Probe stream: every record in trace order, cycled to the size budget
	// (power-of-two counts keep the scattered warp indexing exact).
	requests := env.scale(1<<10, 32<<10, 128<<10, 1<<20)
	probes := make([]uint64, requests)
	for i := range probes {
		probes[i] = hashKey(recs[i%len(recs)].Key)
	}

	// Bucket chains sized like the synthetic memcached table: about two
	// entries per bucket keeps chains short but non-trivial.
	t := newKVTable(nextPow2(max(len(order)/2, 2)), len(order))
	for _, k := range order {
		if v, ok := values[k]; ok { // a key set and then deleted has no entry
			t.insert(k, v)
		}
	}
	// The trace already fixes each request's key: one probe per thread.
	return t.probe("trace replay", env.AS, probes, 1), nil
}
