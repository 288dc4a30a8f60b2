#!/usr/bin/env bash
# Tier-1 verification plus the race detector.
#
# The experiment pipeline executes simulations on a parallel worker pool
# (internal/experiments/runner.go), so plain `go test` is not enough: the
# executor tests deliberately hammer the result store and harness from many
# goroutines, and only `-race` proves those paths are clean. Run this
# before merging anything that touches internal/experiments, internal/stats,
# or the CLIs.
#
# Usage: tools/ci.sh [package...]   (defaults to ./...)
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=("${@:-./...}")

echo "== go vet ${pkgs[*]}"
go vet "${pkgs[@]}"

echo "== go build ${pkgs[*]}"
go build "${pkgs[@]}"

echo "== go test ${pkgs[*]}"
go test "${pkgs[@]}"

echo "== go test -race ${pkgs[*]}"
go test -race "${pkgs[@]}"

# The benchmark harness is its own module (bench/go.mod), so the steps
# above never build it. It calls the simulator's internal APIs directly;
# vetting and short-testing it here catches a change to one of those APIs
# before a benchmark run does.
echo "== go -C bench vet ./... && go -C bench test -short ./..."
go -C bench vet ./...
go -C bench test -short ./...

# Observability gates. First: a traced+sampled tiny run must emit
# schema-valid Chrome trace JSON (tools/tracecheck checks every event) and
# a CSV series with the expected header. Second: with observability OFF the
# warm simulation path must still allocate nothing — the AllocsPerRun tests
# are the contract that the nil-gated obs hooks cost zero when unused.
echo "== trace schema (gpusim -trace -sample 100 | tracecheck)"
obs_tmp="$(mktemp -d)"
svc_pid=""
trap '[[ -n "$svc_pid" ]] && kill "$svc_pid" 2>/dev/null; rm -rf "$obs_tmp"' EXIT
go run ./cmd/gpusim -workload bfs -size tiny -mmu augmented \
	-trace "$obs_tmp/trace.json" -sample 100 -samplefile "$obs_tmp/series.csv" >/dev/null
go run ./tools/tracecheck "$obs_tmp/trace.json"
if ! head -1 "$obs_tmp/series.csv" | grep -q '^cycle,instructions,'; then
	echo "ci: FAIL sampler CSV missing header" >&2
	exit 1
fi

echo "== zero-alloc warm path with observability off"
go test -run 'TestExecMemSteadyStateAllocFree|TestGatedSleepAllocFree' ./internal/gpu
go test -run 'TestWalkAllocFree|TestTranslatorHitAllocFree|TestWriterAllocFree' ./internal/vm

# Per-layer benchmarks: one iteration each keeps BenchmarkRunBlocking,
# BenchmarkRunAugmented, BenchmarkBuild, BenchmarkCheckpointSweep and
# BenchmarkSampledVsExact compiling and running. No timing gate; the checkpoint sweep fails if a
# warm-started run simulates different cycles than its cold twin, and the
# sampled-vs-exact benchmark if fast-forward leaves different memory or
# page tables than the exact run.
echo "== per-layer benchmarks (internal/gpu, internal/workloads, internal/experiments, 1 iteration each)"
go test -run '^$' -bench '^BenchmarkRun' -benchtime 1x ./internal/gpu
go test -run '^$' -bench '^BenchmarkBuild$' -benchtime 1x ./internal/workloads
go test -run '^$' -bench '^(BenchmarkCheckpointSweep|BenchmarkSampledVsExact)$' -benchtime 1x ./internal/experiments

# Campaign gates (DESIGN.md section 13). Every committed example campaign
# must validate; the campaign-driven figure-2 report must be byte-identical
# to the flag-driven invocation it replaces (for any -j); and the
# committed sample request trace must replay end to end with its
# functional check passing. gpusim's own text reports are pinned by two
# goldens: an exact tiny run of three workloads and a small sampled run
# whose plan really fast-forwards. Round trip: each of those three flag
# invocations, run with -validate, prints the campaign it spells, and that
# campaign run through -campaign must reproduce the golden or the
# flag-driven report byte for byte.
echo "== campaign gates (validate examples; campaign == flags; flags -> campaign round trip; trace replay; gpusim goldens)"
go build -o "$obs_tmp/experiments" ./cmd/experiments
go build -o "$obs_tmp/gpusim" ./cmd/gpusim
# roundtrip CLI NAME ARGS...: run ARGS into NAME.flags.txt, print the
# campaign they spell with -validate, run that campaign into
# NAME.roundtrip.txt, and cmp the two reports.
roundtrip() {
	local cli="$1" name="$2"
	shift 2
	"$obs_tmp/$cli" "$@" >"$obs_tmp/$name.flags.txt"
	"$obs_tmp/$cli" "$@" -validate >"$obs_tmp/$name.yaml"
	"$obs_tmp/$cli" -campaign "$obs_tmp/$name.yaml" >"$obs_tmp/$name.roundtrip.txt"
	if ! cmp -s "$obs_tmp/$name.flags.txt" "$obs_tmp/$name.roundtrip.txt"; then
		echo "ci: FAIL $cli $*: the campaign -validate prints runs a different report" >&2
		exit 1
	fi
}
roundtrip gpusim gpusim.tiny -workload bfs,memcached,pointerchase -size tiny -mmu augmented -j 2
if ! cmp -s cmd/gpusim/testdata/tiny-augmented.golden "$obs_tmp/gpusim.tiny.flags.txt"; then
	echo "ci: FAIL gpusim tiny report differs from cmd/gpusim/testdata/tiny-augmented.golden" >&2
	exit 1
fi
roundtrip gpusim gpusim.sampled -workload memcached,bfs -size small -cores 4 -mmu augmented \
	-sampleplan 1000,4000,40000 -j 2
if ! cmp -s cmd/gpusim/testdata/sampled-small.golden "$obs_tmp/gpusim.sampled.flags.txt"; then
	echo "ci: FAIL gpusim sampled report differs from cmd/gpusim/testdata/sampled-small.golden" >&2
	exit 1
fi
roundtrip experiments fig2 -fig 2 -size tiny -machine small
for f in examples/campaigns/*; do
	"$obs_tmp/experiments" -campaign "$f" -validate >/dev/null
done
"$obs_tmp/experiments" -campaign examples/campaigns/fig2-tiny.yaml -j 3 >"$obs_tmp/fig2.campaign.txt"
if ! cmp -s "$obs_tmp/fig2.flags.txt" "$obs_tmp/fig2.campaign.txt"; then
	echo "ci: FAIL campaign-driven fig2 report differs from the flag-driven report" >&2
	exit 1
fi
if ! "$obs_tmp/gpusim" -campaign examples/campaigns/trace-replay.yaml | grep -q '^functional check: ok'; then
	echo "ci: FAIL trace-replay campaign functional check" >&2
	exit 1
fi
# -sample on a trace replay names its default series file after the trace
# file and writes it to the working directory.
rm -f wiki_requests.csv.samples.csv
"$obs_tmp/gpusim" -campaign examples/campaigns/trace-replay.yaml -sample 100 >/dev/null
if ! head -1 wiki_requests.csv.samples.csv | grep -q '^cycle,instructions,'; then
	echo "ci: FAIL gpusim -sample on a trace replay wrote no wiki_requests.csv.samples.csv" >&2
	exit 1
fi
rm -f wiki_requests.csv.samples.csv

# Checkpoint equivalence gate (DESIGN.md section 14): the same campaign run
# with -checkpoint (runs restored from per-workload post-build snapshots)
# must render a byte-identical report to the cold run above. This is the
# end-to-end proof that snapshot restore leaves no trace in the output.
echo "== checkpoint equivalence (fig2-tiny campaign, cold == -checkpoint)"
"$obs_tmp/experiments" -campaign examples/campaigns/fig2-tiny.yaml -j 3 -checkpoint >"$obs_tmp/fig2.ckpt.txt"
if ! cmp -s "$obs_tmp/fig2.campaign.txt" "$obs_tmp/fig2.ckpt.txt"; then
	echo "ci: FAIL checkpointed fig2 report differs from the cold report" >&2
	exit 1
fi

# Service gates (DESIGN.md section 16). First: a campaign submitted to a
# gpusimd job server must render a report byte-identical to the direct
# -campaign invocation above — the HTTP/store path adds nothing to the
# output. Second: after killing and restarting the server on the same
# store directory, resubmitting the identical campaign must be served
# entirely from the durable store (the job's dedup counter proves zero
# re-simulation) and still render byte-identically.
echo "== service gates (server report == direct report; restart serves from store)"
go build -o "$obs_tmp/gpusimd" ./cmd/gpusimd
start_gpusimd() {
	rm -f "$obs_tmp/addr"
	"$obs_tmp/gpusimd" -addr 127.0.0.1:0 -addrfile "$obs_tmp/addr" \
		-j 3 "$@" >/dev/null 2>&1 &
	svc_pid=$!
	for _ in $(seq 1 100); do
		[[ -s "$obs_tmp/addr" ]] && break
		sleep 0.1
	done
	if [[ ! -s "$obs_tmp/addr" ]]; then
		echo "ci: FAIL gpusimd never wrote its address file" >&2
		exit 1
	fi
	svc_url="$(cat "$obs_tmp/addr")"
}
stop_gpusimd() {
	kill "$svc_pid" 2>/dev/null || true
	wait "$svc_pid" 2>/dev/null || true
	svc_pid=""
}
start_gpusimd -store "$obs_tmp/svcstore"
"$obs_tmp/gpusim" submit -server "$svc_url" -campaign examples/campaigns/fig2-tiny.yaml \
	-report 2>"$obs_tmp/job1.json" >"$obs_tmp/fig2.server.txt"
if ! cmp -s "$obs_tmp/fig2.campaign.txt" "$obs_tmp/fig2.server.txt"; then
	echo "ci: FAIL server-rendered fig2 report differs from the direct -campaign report" >&2
	exit 1
fi
stop_gpusimd
start_gpusimd -store "$obs_tmp/svcstore"
"$obs_tmp/gpusim" submit -server "$svc_url" -campaign examples/campaigns/fig2-tiny.yaml \
	-report 2>"$obs_tmp/job2.json" >"$obs_tmp/fig2.server2.txt"
if ! grep -q '"simulated": 0' "$obs_tmp/job2.json"; then
	echo "ci: FAIL restarted server re-simulated a stored campaign:" >&2
	cat "$obs_tmp/job2.json" >&2
	exit 1
fi
if ! cmp -s "$obs_tmp/fig2.campaign.txt" "$obs_tmp/fig2.server2.txt"; then
	echo "ci: FAIL store-rehydrated fig2 report differs from the direct report" >&2
	exit 1
fi
stop_gpusimd

# Concurrent-scheduler gate (DESIGN.md section 16.5). A -jobs 4 server on
# a fresh store takes the same campaign from three clients at once. Every
# report must be byte-identical to the direct run; across the three jobs
# each unique spec must have simulated exactly once (sum of "simulated"
# equals one job's "total"), with the overlap visible as coalesced
# flights; and a restart must serve a fourth submission entirely from the
# store.
echo "== concurrency gate (-jobs 4, 3 simultaneous clients, singleflight dedup)"
start_gpusimd -store "$obs_tmp/concstore" -jobs 4
for i in 1 2 3; do
	"$obs_tmp/gpusim" submit -server "$svc_url" -campaign examples/campaigns/fig2-tiny.yaml \
		-report 2>"$obs_tmp/cjob$i.json" >"$obs_tmp/fig2.conc$i.txt" &
	eval "client$i=$!"
done
wait "$client1" "$client2" "$client3"
for i in 1 2 3; do
	if ! cmp -s "$obs_tmp/fig2.campaign.txt" "$obs_tmp/fig2.conc$i.txt"; then
		echo "ci: FAIL concurrent client $i report differs from the direct report" >&2
		exit 1
	fi
done
conc_total="$(grep -ho '"total": [0-9]*' "$obs_tmp/cjob1.json" | awk '{print $2}')"
conc_sim="$(grep -ho '"simulated": [0-9]*' "$obs_tmp"/cjob[123].json | awk '{ s += $2 } END { print s }')"
conc_coal="$(grep -ho '"coalesced": [0-9]*' "$obs_tmp"/cjob[123].json | awk '{ s += $2 } END { print s }')"
echo "ci: concurrent jobs: total ${conc_total}, simulated ${conc_sim}, coalesced ${conc_coal}"
if [[ -z "$conc_total" || "$conc_sim" -ne "$conc_total" ]]; then
	echo "ci: FAIL three concurrent jobs simulated ${conc_sim} specs, want exactly ${conc_total}:" >&2
	cat "$obs_tmp"/cjob[123].json >&2
	exit 1
fi
if [[ "$conc_coal" -eq 0 ]]; then
	echo "ci: FAIL no coalesced flights across three simultaneous identical jobs:" >&2
	cat "$obs_tmp"/cjob[123].json >&2
	exit 1
fi
stop_gpusimd
start_gpusimd -store "$obs_tmp/concstore" -jobs 4
"$obs_tmp/gpusim" submit -server "$svc_url" -campaign examples/campaigns/fig2-tiny.yaml \
	-report 2>"$obs_tmp/cjob4.json" >"$obs_tmp/fig2.conc4.txt"
if ! grep -q '"simulated": 0' "$obs_tmp/cjob4.json"; then
	echo "ci: FAIL restarted -jobs 4 server re-simulated a stored campaign:" >&2
	cat "$obs_tmp/cjob4.json" >&2
	exit 1
fi
if ! cmp -s "$obs_tmp/fig2.campaign.txt" "$obs_tmp/fig2.conc4.txt"; then
	echo "ci: FAIL post-restart concurrent-store report differs from the direct report" >&2
	exit 1
fi
stop_gpusimd

# Sampling gates (DESIGN.md section 15). TestSampledAccuracyGate: sampled
# estimates of the sim_cycles-derived metrics (IPC, TLB miss rate) must
# agree with the exact run within 2% and the end-of-run memory/page-table
# digests must be identical. TestSampledReportGolden: the sampled report
# matches its committed golden. Then the committed run.sampling campaign
# must render byte-identically for any -j — interval sampling must not leak
# host parallelism into reports.
echo "== sampling gates (accuracy <= 2%, report golden, campaign determinism)"
go test -run 'TestSampledAccuracyGate|TestSampledReportGolden' ./internal/experiments
"$obs_tmp/experiments" -campaign examples/campaigns/sampled-sweep.yaml -j 1 >"$obs_tmp/sampled.a.txt"
"$obs_tmp/experiments" -campaign examples/campaigns/sampled-sweep.yaml -j 3 >"$obs_tmp/sampled.b.txt"
if ! cmp -s "$obs_tmp/sampled.a.txt" "$obs_tmp/sampled.b.txt"; then
	echo "ci: FAIL sampled campaign report differs across -j" >&2
	exit 1
fi

# Snapshot round-trip under the race detector: restore-then-run must be
# byte-identical to a cold run (stats, memory image, Chrome trace), and the
# snapshot pool must be clean under concurrent Acquire.
echo "== go test -race snapshot round-trip"
go test -race ./internal/snapshot

# Differential fuzzing smoke (DESIGN.md section 12): each target explores
# beyond the committed seed corpus for a short budget. Failures minimise to
# a replayable snippet — see cmd/difftest for longer soaks.
echo "== fuzz smoke (15s per target: three differential, campaign parser)"
go test -run '^$' -fuzz '^FuzzDiffKernel$' -fuzztime 15s ./internal/difftest
go test -run '^$' -fuzz '^FuzzPageTable$' -fuzztime 15s ./internal/difftest
go test -run '^$' -fuzz '^FuzzTLBVsWalk$' -fuzztime 15s ./internal/difftest
# The campaign parser reads files and POST /v1/jobs documents: no input
# may panic it, and every accepted one must emit a re-parsable fixpoint.
go test -run '^$' -fuzz '^FuzzCampaignParse$' -fuzztime 15s ./internal/campaign

# Coverage floor for the packages the invariant checker and differential
# harness lean on hardest — translation hardware and the VM layer — plus
# the two the sampled/checkpointed paths rest on: snapshot restore and the
# interval-sampling estimators — plus the job server, whose scheduler and
# durability guarantees are test-enforced. All must stay above 80%
# statement coverage.
echo "== coverage floor (internal/core, internal/vm, internal/snapshot, internal/stats, internal/service >= 80%)"
for pkg in ./internal/core ./internal/vm ./internal/snapshot ./internal/stats ./internal/service; do
	pct="$(go test -cover "$pkg" | awk -F'coverage: ' '/coverage:/ { split($2, a, "%"); print a[1] }')"
	if [[ -z "$pct" ]]; then
		echo "ci: FAIL could not parse coverage for $pkg" >&2
		exit 1
	fi
	echo "ci: $pkg coverage ${pct}%"
	if awk -v p="$pct" 'BEGIN { exit !(p < 80.0) }'; then
		echo "ci: FAIL $pkg coverage ${pct}% below 80% floor" >&2
		exit 1
	fi
done

# Bench gate: one iteration of the figure-2 benchmark proves the hot path
# still runs end to end, and its wall time must stay within 25% of the
# recorded baseline (tools/bench_fig02_baseline.txt, ns/op). If no baseline
# is recorded yet, this run records one instead of gating. Regenerate the
# baseline deliberately — on the reference machine — after intentional
# hot-path changes: tools/ci.sh prints the measured value to copy in.
echo "== bench gate (BenchmarkFig02 x1, <= 1.25x baseline)"
fig02_raw="$(go test -bench BenchmarkFig02 -benchtime 1x -run '^$' .)"
echo "$fig02_raw"
fig02_ns="$(echo "$fig02_raw" | awk '/^BenchmarkFig02/ { for (i = 1; i <= NF; i++) if ($i == "ns/op") print $(i-1) }')"
baseline_file="tools/bench_fig02_baseline.txt"
if [[ -z "$fig02_ns" ]]; then
	echo "ci: FAIL could not parse BenchmarkFig02 ns/op" >&2
	exit 1
fi
if [[ ! -s "$baseline_file" ]]; then
	echo "$fig02_ns" >"$baseline_file"
	echo "ci: recorded new BenchmarkFig02 baseline ${fig02_ns} ns/op in $baseline_file"
else
	baseline_ns="$(cat "$baseline_file")"
	limit_ns=$((baseline_ns + baseline_ns / 4))
	echo "ci: BenchmarkFig02 ${fig02_ns} ns/op (baseline ${baseline_ns}, limit ${limit_ns})"
	if ((fig02_ns > limit_ns)); then
		echo "ci: FAIL BenchmarkFig02 regressed >25% vs $baseline_file" >&2
		exit 1
	fi
fi

echo "ci: ok"
