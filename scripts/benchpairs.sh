#!/usr/bin/env bash
# Runs alternated pairs of benchmark runs, a parent revision against the
# working tree, and summarises every metric per side. Run it from the
# repository root:
#
#   bash scripts/benchpairs.sh <parent-rev> <workload> <pairs> <seed> [seconds] [trace]
#
# e.g. `bash scripts/benchpairs.sh HEAD~1 retrace 10 77`. Both sides
# build and run from paths of the same depth: the parent is checked out
# in a git worktree under .bench_out/pairs/parent, and the change in one
# under .bench_out/pairs/change at HEAD with the working tree's files
# copied over it (tracked and untracked alike, ignored ones excepted, and
# the files it deleted removed). Both are removed on exit, and both trees
# run perfbench/run.sh with the same arguments:
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
# interquartile range, whether the claim rule holds (the change wins at
# least 9 pairs in 10 and its median is better by more than the
# parent's IQR), and the metric's gate outcome.
#
# The exit status is the same-host gate: after the summary the script
# exits 1, naming each reason on a last "gate:" line, when
#   - a change-side run is not "correct":true;
#   - the change's median failed share (failed/attempted) is above the
#     parent's;
#   - an end_to_end metric of BENCHMARK.json has a change median worse
#     than the parent's by more than its bound, read as a fraction of the
#     parent's median ("fail"), or the parent reports it and the change
#     does not. When the parent's IQR, as a fraction of its median, is
#     wider than the bound, the pairs cannot resolve the bound: the
#     outcome is "unresolved", and it does not fail.
# Per-layer metrics never gate ("none").
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
parent="$out/parent" change="$out/change"
results="$out/$workload-seed$seed-trace$trace.ndjson"
mkdir -p "$out"
for dir in "$parent" "$change"; do
	git worktree remove --force "$dir" 2>/dev/null || true
done
trap 'git worktree remove --force "$parent"; git worktree remove --force "$change"' EXIT
git worktree add --detach --quiet "$parent" "$rev"
git worktree add --detach --quiet "$change" HEAD
# existing prints the NUL-separated paths it reads that exist (-e) or
# do not (! -e) in the working tree.
existing() {
	while IFS= read -r -d '' f; do if [ "$@" "$f" ]; then printf '%s\0' "$f"; fi; done
}
git ls-files -z --cached --others --exclude-standard | existing -e |
	tar --null -T - -cf - | tar -xf - -C "$change"
git ls-tree -r -z --name-only HEAD | existing ! -e | (cd "$change" && xargs -0 rm -f --)
: >"$results"

run() { # side pair
	local dir=$change line
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
# The first file read is BENCHMARK.json, for each metric's direction and
# bound: its "name" lines are each followed by the metric's "better"
# line and, in the end_to_end list, its "bound" line.
awk '
FNR == NR {
	if ($0 ~ /"[a-z_]+": *\[/) { list = $0; sub(/^[^"]*"/, "", list); sub(/".*/, "", list) }
	if ($0 ~ /"name":/) { metric = $0; sub(/.*"name": *"/, "", metric); sub(/".*/, "", metric) }
	if ($0 ~ /"better":/) { dir = $0; sub(/.*"better": *"/, "", dir); sub(/".*/, "", dir); better[metric] = dir }
	if ($0 ~ /"bound":/ && list == "end_to_end") { b = $0; sub(/.*"bound": */, "", b); sub(/[,} ].*/, "", b); bound[metric] = b + 0 }
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
	a = $0; sub(/.*"attempted":/, "", a); sub(/[,}].*/, "", a)
	v[side, "failed share", pair + 0] = a + 0 > 0 ? f / a : 0
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
# ratio returns x as a fraction of the parent median m.
function ratio(x, m) {
	if (m < 0) m = -m
	return m > 0 ? x / m : x > 0 ? 1e308 : 0
}
END {
	for (k = 0; k < nnames; k++) {
		name = names[k]
		higher = better[name] == "higher"
		gated = name in bound
		wins = 0; pairs = 0
		for (i = 1; i <= npairs; i++) {
			if (!(("parent", name, i) in v) || !(("change", name, i) in v)) continue
			pairs++
			if (higher ? v["change", name, i] > v["parent", name, i] : v["change", name, i] < v["parent", name, i]) wins++
		}
		printf "%s (%s is better)\n  parent  %s\n  change  %s\n  change wins %d of %d pairs\n", name, higher ? "higher" : "lower", summary("parent", name), summary("change", name), wins, pairs
		if (pairs == 0 || !quartiles("parent", name)) {
			if (gated && quartiles("parent", name)) {
				print "  verdict: gate fail (the change does not report it)"
				fails = fails " " name " (not reported)"
			}
			continue
		}
		pmed = qmed; iqr = qhi - qlo
		quartiles("change", name)
		gain = higher ? qmed - pmed : pmed - qmed
		way = gain > 0 ? "better" : gain < 0 ? "worse" : "equal"
		rule = (wins * 10 >= pairs * 9 && gain > iqr) ? "holds" : "not met"
		if (gain < 0) gain = -gain
		delta = gain ? sprintf("%s by %.1f%%", way, 100 * ratio(gain, pmed)) : "equal"
		if (!gated) gate = "none (per-layer)"
		else if (ratio(iqr, pmed) > bound[name]) gate = sprintf("unresolved (parent IQR %.1f%% of its median > bound %g%%)", 100 * ratio(iqr, pmed), 100 * bound[name])
		else if (way == "worse" && ratio(gain, pmed) > bound[name]) {
			gate = sprintf("fail (%s > bound %g%%)", delta, 100 * bound[name])
			fails = fails " " name " (" delta ")"
		} else gate = sprintf("pass (%s, bound %g%%)", delta, 100 * bound[name])
		printf "  verdict: wins %d/%d, |dmedian| %.4g %s, parent IQR %.4g: claim rule %s; gate %s\n", wins, pairs, gain, way, iqr, rule, gate
	}
	for (s = 0; s < 2; s++) {
		side = s ? "change" : "parent"
		share[side] = quartiles(side, "failed share") ? qmed : 0
		printf "%s: correct %d of %d runs, failed per run %s, median failed share %.4g\n", side, correct[side] + 0, runs[side] + 0, failed[side], share[side]
	}
	if (correct["change"] + 0 < runs["change"]) fails = fails sprintf(" correct (%d of %d change runs)", correct["change"] + 0, runs["change"])
	if (share["change"] > share["parent"]) fails = fails sprintf(" failed share (%.4g > %.4g)", share["change"], share["parent"])
	if (fails == "") print "gate: pass"
	else { print "gate: fail:" fails; exit 1 }
}' "$root/BENCHMARK.json" "$results"
