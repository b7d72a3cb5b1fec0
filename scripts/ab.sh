#!/usr/bin/env bash
# ab.sh — same-run A/B comparison of a base revision and the working tree
# on the repository benchmark (BENCHMARK.json, perfbench/):
#
#   scripts/ab.sh <base-ref> <pairs> <seconds>
#
# The base is checked out in a git worktree under .bench_build/ab/, removed
# again on exit. For every workload in BENCHMARK.json the script runs
# <pairs> pairs of `bash perfbench/run.sh --trace 0 --seconds <seconds>`,
# one run on each side. Pair i uses seed i on both sides; odd pairs run the
# base first, even pairs the working tree. Each run's stdout (with
# perfbench's env stamp and host steal) is kept in
# .bench_build/ab/<workload>.<side>.<seed>.out, its stderr next to it.
#
# For each end-to-end metric it prints both sides' median and quartiles,
# the pairs the working tree won and lost ("better" as BENCHMARK.json
# defines it; ties count for neither) and the one-sided sign-test p of
# that many wins. The comparison is a report: the script exits non-zero
# only when a run ends without a correct=true result (a build failure or a
# correctness violation), naming the workload, side and seed.
set -euo pipefail
[ $# -eq 3 ] || { echo "usage: scripts/ab.sh <base-ref> <pairs> <seconds>" >&2; exit 2; }
base=$1 pairs=$2 secs=$3
root=$(git rev-parse --show-toplevel)
cd "$root"
dir=$root/.bench_build/ab wt=$root/.bench_build/ab/base
mkdir -p "$dir"
cleanup() { rm -rf "$wt"; git worktree prune; }
cleanup # a worktree left behind by an earlier run that was killed
trap cleanup EXIT
git worktree add -q --detach "$wt" "$base"
: >"$dir/results"

run() { # side workload seed
	local out=$dir/$2.$1.$3 src=$root
	[ "$1" = base ] && src=$wt
	echo "ab: $2 seed $3 on $1" >&2
	(cd "$src" && bash perfbench/run.sh --workload "$2" --seed "$3" --seconds "$secs" --trace 0) \
		>"$out.out" 2>"$out.err" || true
	local ok
	ok=$(tail -n1 "$out.out" | jq -r .correct 2>/dev/null) || ok=
	if [ "$ok" != true ]; then
		echo "ab: FAIL workload=$2 side=$1 seed=$3: correct=${ok:-none} (see $out.out, $out.err)" >&2
		tail -n5 "$out.out" "$out.err" >&2
		exit 1
	fi
	tail -n1 "$out.out" | jq -r --arg w "$2" --arg s "$1" \
		'.metrics | to_entries[] | "\($w) \($s) \(.key) \(.value.value)"' >>"$dir/results"
}

for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then run base "$w" "$i"; run work "$w" "$i"; else run work "$w" "$i"; run base "$w" "$i"; fi
	done
done

echo "base $base ($(git rev-parse --short "$base")) vs working tree; $pairs pairs x $secs s"
jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json | awk '
	function num(x) { return x >= 1000 ? sprintf("%.0f", x) : sprintf("%.3g", x) }
	function q(a, n, p,   i, j, t, k) { # quantile p of a[1..n], linear interpolation
		for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
		k = 1 + (n - 1) * p; i = int(k)
		return i < n ? a[i] + (k - i) * (a[i+1] - a[i]) : a[n]
	}
	function spread(a, n) { return num(q(a, n, .5)) " [" num(q(a, n, .25)) ", " num(q(a, n, .75)) "]" }
	FNR == NR { better[$1] = $2; order[++nm] = $1; next }
	{ if (!($1 in seen)) { seen[$1]; wl[++nw] = $1 } vals[$1, $3, $2] = vals[$1, $3, $2] " " $4 }
	END {
		printf "%-15s %-17s %-6s %-30s %-30s %4s %4s %6s\n", "workload", "metric", "better", "base median [q1, q3]", "work median [q1, q3]", "won", "lost", "p"
		for (x = 1; x <= nw; x++) for (y = 1; y <= nm; y++) {
			m = order[y]
			n = split(vals[wl[x], m, "base"], b); split(vals[wl[x], m, "work"], c)
			won = lost = 0
			for (i = 1; i <= n; i++) {
				d = better[m] == "higher" ? c[i] - b[i] : b[i] - c[i]
				if (d > 0) won++; else if (d < 0) lost++
			}
			p = 0; k = 1 # k = C(won+lost, i)
			for (i = 0; i <= won + lost; i++) { if (i >= won) p += k; k = k * (won + lost - i) / (i + 1) }
			printf "%-15s %-17s %-6s %-30s %-30s %4d %4d %6.3f\n", wl[x], m, better[m], spread(b, n), spread(c, n), won, lost, p / 2 ^ (won + lost)
		}
	}' - "$dir/results"
