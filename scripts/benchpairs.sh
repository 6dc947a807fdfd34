#!/usr/bin/env bash
# Runs alternated pairs of benchmark runs, a parent revision against the
# working tree, and summarises every metric per side. Run it from the
# repository root:
#
#   bash scripts/benchpairs.sh <parent-rev> <workload> <pairs> <seed> [seconds] [trace]
#
# e.g. `bash scripts/benchpairs.sh HEAD~1 retrace 10 77`. The parent is
# checked out in a git worktree under .bench_out/pairs/parent (removed on
# exit), and both trees run perfbench/run.sh with the same arguments:
# --trace 0 by default, or --trace 1 for the traced ledger's per-layer
# metrics (dotted names such as engine_step.ns_per_report). Odd pairs
# run the parent first, even pairs the change. Every result line is
# kept, tagged with its side and pair, in
# .bench_out/pairs/<workload>-seed<seed>-trace<trace>.ndjson. The summary
# gives each metric's median and quartiles per side and the pairs the
# change won, by the metric's "better" direction in BENCHMARK.json
# (lower when a metric is not listed there; ties count for neither
# side), then each side's correct and failed counts. Each metric ends
# with a verdict line: the wins, the change's median gain over the
# parent's (|Δmedian|, and whether it is better or worse), the parent's
# interquartile range, and whether the claim rule holds: the change wins
# at least 9 pairs in 10 and its median is better by more than the
# parent's IQR.
set -euo pipefail
if [ $# -lt 4 ]; then
	echo "usage: $0 <parent-rev> <workload> <pairs> <seed> [seconds] [trace]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 seed=$4 seconds=${5:-30} trace=${6:-0}
if [ "$trace" != 0 ] && [ "$trace" != 1 ]; then
	echo "$0: trace must be 0 or 1, got $trace" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_out/pairs"
parent="$out/parent"
results="$out/$workload-seed$seed-trace$trace.ndjson"
mkdir -p "$out"
git worktree remove --force "$parent" 2>/dev/null || true
git worktree add --detach --quiet "$parent" "$rev"
trap 'git worktree remove --force "$parent"' EXIT
: >"$results"

run() { # side pair
	local dir=$root line
	if [ "$1" = parent ]; then dir=$parent; fi
	line=$(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace "$trace" | tail -n 1)
	echo "{\"side\":\"$1\",\"pair\":$2,\"result\":$line}" >>"$results"
	echo "pair $2 $1: $line" >&2
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$i"
		run change "$i"
	else
		run change "$i"
		run parent "$i"
	fi
done

echo "$workload seed $seed trace $trace, $pairs pairs of ${seconds}s runs: parent $(git rev-parse --short "$rev") vs working tree"
# The first file read is BENCHMARK.json, for each metric's direction:
# its "name" lines are each followed by the metric's "better" line.
awk '
FNR == NR {
	if ($0 ~ /"name":/) { metric = $0; sub(/.*"name": *"/, "", metric); sub(/".*/, "", metric) }
	if ($0 ~ /"better":/) { dir = $0; sub(/.*"better": *"/, "", dir); sub(/".*/, "", dir); better[metric] = dir }
	next
}
function quantile(a, n, q,   pos, lo) {
	pos = (n - 1) * q
	lo = int(pos)
	return lo + 1 < n ? a[lo] + (pos - lo) * (a[lo + 1] - a[lo]) : a[lo]
}
# quartiles sets qmed, qlo and qhi to the median and quartiles of one
# side and metric, and returns its run count.
function quartiles(side, name,   a, n, i, j, t) {
	n = 0
	for (i = 1; i <= npairs; i++)
		if ((side, name, i) in v) a[n++] = v[side, name, i]
	for (i = 1; i < n; i++)
		for (j = i; j > 0 && a[j - 1] > a[j]; j--) {
			t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
		}
	if (n > 0) { qmed = quantile(a, n, 0.5); qlo = quantile(a, n, 0.25); qhi = quantile(a, n, 0.75) }
	return n
}
function summary(side, name,   n) {
	if (!(n = quartiles(side, name))) return "(no runs)"
	return sprintf("median %.8g  q1 %.8g  q3 %.8g  (n=%d)", qmed, qlo, qhi, n)
}
{
	side = $0; sub(/.*"side":"/, "", side); sub(/".*/, "", side)
	pair = $0; sub(/.*"pair":/, "", pair); sub(/,.*/, "", pair)
	if (pair + 0 > npairs) npairs = pair + 0
	runs[side]++
	if ($0 ~ /"correct":true/) correct[side]++
	f = $0; sub(/.*"failed":/, "", f); sub(/[,}].*/, "", f)
	failed[side] = failed[side] (failed[side] == "" ? "" : ",") f
	rest = $0
	while (match(rest, /"[a-z0-9_.]+":\{"value":[-+0-9.eE]+/)) {
		m = substr(rest, RSTART, RLENGTH)
		rest = substr(rest, RSTART + RLENGTH)
		name = m; sub(/^"/, "", name); sub(/".*/, "", name)
		val = m; sub(/.*"value":/, "", val)
		if (!(name in seen)) { seen[name] = 1; names[nnames++] = name }
		v[side, name, pair + 0] = val + 0
	}
}
END {
	for (k = 0; k < nnames; k++) {
		name = names[k]
		higher = better[name] == "higher"
		wins = 0; pairs = 0
		for (i = 1; i <= npairs; i++) {
			if (!(("parent", name, i) in v) || !(("change", name, i) in v)) continue
			pairs++
			if (higher ? v["change", name, i] > v["parent", name, i] : v["change", name, i] < v["parent", name, i]) wins++
		}
		printf "%s (%s is better)\n  parent  %s\n  change  %s\n  change wins %d of %d pairs\n", name, higher ? "higher" : "lower", summary("parent", name), summary("change", name), wins, pairs
		if (pairs == 0 || !quartiles("parent", name)) continue
		pmed = qmed; iqr = qhi - qlo
		quartiles("change", name)
		gain = higher ? qmed - pmed : pmed - qmed
		way = gain > 0 ? "better" : gain < 0 ? "worse" : "equal"
		rule = (wins * 10 >= pairs * 9 && gain > iqr) ? "holds" : "not met"
		if (gain < 0) gain = -gain
		printf "  verdict: wins %d/%d, |dmedian| %.4g %s, parent IQR %.4g: claim rule %s\n", wins, pairs, gain, way, iqr, rule
	}
	for (s = 0; s < 2; s++) {
		side = s ? "change" : "parent"
		printf "%s: correct %d of %d runs, failed per run %s\n", side, correct[side] + 0, runs[side] + 0, failed[side]
	}
}' "$root/BENCHMARK.json" "$results"
