#!/usr/bin/env bash
# Records the sampled-vs-exact measurement as an entry appended to the
# BENCH_sampling.json trajectory file. End-to-end simulator speed is
# measured by the repository benchmark (bench/README.md), and the
# checkpoint warm-start delta by BenchmarkCheckpointSweep
# (internal/experiments).
#
# Usage: tools/bench.sh [label]     (label defaults to the short git HEAD)
#
# Every appended record is stamped with host_cpus, gomaxprocs, and git_sha
# so an entry is attributable to a machine and commit — a "speedup" from a
# 1-CPU container and one from a 16-CPU box are not comparable otherwise.
#
# Section (appends one entry per invocation):
#   BENCH_sampling.json    sampled-vs-exact wall clock and accuracy per
#                          workload, from `gpusim -benchsampling` (the >=5x
#                          / <=2% gate reads aggregate_speedup, max_ipc_err
#                          and max_missrate_err; schema in EXPERIMENTS.md)
#
# Entries are append-only, with one exception: re-running bench at the same
# commit replaces that commit's previous record instead of piling up
# duplicates (consecutive identical-sha entries collapse to the newest).
# A dirty working tree or an unknown SHA is refused — an unattributable
# record poisons the trajectory — unless BENCH_ALLOW_DIRTY=1, which stamps
# the record "<sha>-dirty" so the provenance stays honest.
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo unlabeled)}"
git_sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
raw="$(mktemp)"
gpusim_bin="$(mktemp)"
trap 'rm -f "$raw" "$gpusim_bin"' EXIT

# Refuse unattributable records: a record stamped with a SHA whose tree had
# uncommitted changes (or no SHA at all) cannot be reproduced or compared.
if [[ "$git_sha" == unknown || -n "$(git status --porcelain 2>/dev/null)" ]]; then
	if [[ "${BENCH_ALLOW_DIRTY:-0}" == 1 ]]; then
		git_sha="${git_sha}-dirty"
		echo "bench: working tree dirty; stamping records '$git_sha' (BENCH_ALLOW_DIRTY=1)" >&2
	else
		echo "bench: refusing to append records: git SHA is unknown or the working tree is dirty." >&2
		echo "bench: commit first, or set BENCH_ALLOW_DIRTY=1 to record anyway (stamped '-dirty')." >&2
		exit 1
	fi
fi

# append_json FILE ENTRY — append one JSON object to the array in FILE
# (created if absent), then collapse consecutive entries with the same
# git_sha so a re-run at one commit replaces its previous record.
append_json() {
	local file="$1" entry="$2"
	BENCH_ENTRY="$entry" python3 - "$file" <<-'PYEOF'
	import json, os, sys

	path = sys.argv[1]
	entry = json.loads(os.environ["BENCH_ENTRY"])
	try:
	    with open(path) as f:
	        arr = json.load(f)
	except (FileNotFoundError, ValueError):
	    arr = []
	arr.append(entry)
	out = []
	for e in arr:
	    if out and out[-1].get("git_sha") == e.get("git_sha"):
	        out[-1] = e  # same commit: newest record wins
	    else:
	        out.append(e)
	with open(path, "w") as f:
	    json.dump(out, f, indent=2)
	    f.write("\n")
	PYEOF
	echo "bench: recorded entry '$label' in $file" >&2
}

# The gpusim bench mode stamps host_cpus/gomaxprocs itself from the Go
# runtime; bench.sh only hands it the commit SHA via -benchlabel.
go build -o "$gpusim_bin" ./cmd/gpusim

# Sampled-vs-exact: large datasets on the paper's augmented MMU (forced by
# -benchsampling), under the validated default plan 20000,20000,1000000 —
# warmup windows long enough that the TLBs re-warm organically (DESIGN.md
# section 15). Each workload runs twice (exact, then sampled), so this is
# the slowest section.
echo "bench: running sampled-vs-exact speedup/accuracy (gpusim -benchsampling)" >&2
"$gpusim_bin" -workload bfs,memcached,mummergpu -size large -cores 4 \
	-benchsampling -benchlabel "$git_sha" >"$raw"
append_json "BENCH_sampling.json" "$(cat "$raw")"
tail -n 8 "BENCH_sampling.json" >&2
