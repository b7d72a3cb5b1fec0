#!/usr/bin/env bash
# bench.sh — run the wall-clock benchmark suite and write BENCH_<n>.json,
# the machine-readable perf-trajectory record (one file per measurement,
# numbered consecutively; BENCH_1.json is the record of the scheduler
# fast-path PR, including its seed baseline; BENCH_2.json is the record of
# the two-phase object model PR — the construction-vs-execution split;
# BENCH_3.json is the record of the sharded serving engine PR — the
# parallel throughput suite plus the devirtualized serial path;
# BENCH_4.json is the record of the unified execution layer PR — the
# fault-hook overhead suite: NativeRenaming/NativeCounter and the pool Do
# throughput with the hook disarmed (must sit within noise of BENCH_3),
# plus the armed FaultArmed/Recorded variants; BENCH_5.json is the record
# of the workload-harness PR — the BenchmarkScenario/* rows: open-loop
# achieved-vs-offered rate and latency quantiles for the steady, burst,
# and churn catalog scenarios; BENCH_6.json is the record of the phased
# counting PR — the Phased*Throughput rows (auto/joined/split vs the
# SharedAACInc baseline), the PhasedInc serial A/B legs, and the phased /
# phased-churn scenario rows; BENCH_7.json is the record of the sweep
# engine PR — the BenchmarkSweepExec* three-way amortization legs
# (arena reuse vs instantiate-per-run vs fresh-build) and the
# SweepThroughput -cpu rows, plus the skew scenario row; BENCH_8.json is
# the record of the wire-protocol PR — the BenchmarkWireRename/batch=1|8|64
# loopback amortization sweep (per-op ns, so batch=64 vs batch=1 reads as
# the syscall-amortization factor), WireCounterInc, WirePipelinedDo, and
# the steady/burst catalog scenarios driven through renameload -addr
# against a live renameserve (rows named BenchmarkScenario/<name>/wire);
# BENCH_9.json is the record of the cluster-tier PR — the
# BenchmarkClusterRename/nodes=1|2|3/batch=1|8|64 scatter-gather fan-out
# sweep (nodes=1 vs BenchmarkWireRename isolates the router overhead;
# nodes=3/batch=64 vs nodes=1/batch=64 is the fan-out cost), plus the
# steady/burst catalog scenarios driven through renameload -ring against a
# live 3-node loopback ring (rows named BenchmarkScenario/<name>/cluster);
# BENCH_10.json is the record of the tracing PR — the shared wire/cluster
# rows re-measured with the tracing layer compiled in but disarmed (the
# gate against BENCH_9 is the "observability is free when off" pin), plus
# BenchmarkWireRenameTraced, the batch=64 rename sweep with a collector
# armed at 1-in-64 sampling whose delta against BenchmarkWireRename/batch=64
# is the whole observed cost of tracing on the serving path.
# scripts/bench_gate.sh compares consecutive records and fails CI on
# regressions in shared rows).
#
# Three passes feed one results array:
#
#   1. the serial pass: execution benchmarks (reset-many steady state),
#      FreshBuild/Instantiate/CompileCold (the two-phase split);
#   2. the parallel pass: the *Throughput benchmarks under a -cpu sweep
#      (rows gain the standard -<cpus> name suffix). The -cpu 1 rows are
#      the single-goroutine baseline of the scaling comparison; PoolX vs
#      UnpooledX/SharedX at equal -cpu isolates what the serving engine
#      buys at fixed parallelism;
#   3. the scenario pass: cmd/renameload runs each SCENARIOS catalog entry
#      wall-clock (renameload -gobench emits one benchmark-format row per
#      scenario: ops, offered/achieved rate, p50/p99/p999, crashes).
#
# Usage:
#   scripts/bench.sh                 # next free BENCH_<n>.json, 2s per bench
#   BENCHTIME=5s scripts/bench.sh    # longer per-benchmark budget
#   BENCH='BenchmarkStrongAdaptive$' scripts/bench.sh   # serial subset
#   CPUS=1,2,4,8 scripts/bench.sh    # parallel-pass GOMAXPROCS sweep
#   CPUS=none scripts/bench.sh       # skip the parallel pass
#   SCENARIOS=churn scripts/bench.sh # scenario-pass subset
#   SCENARIOS=none scripts/bench.sh  # skip the scenario pass
#   SCENDUR=5s scripts/bench.sh      # longer scenario windows
#
# The experiment tables (renamebench) have their own machine-readable
# output: go run ./cmd/renamebench -json. Serving throughput is the
# parallel pass below (the *Throughput benchmarks under -cpu $CPUS).
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-2s}"
pattern="${BENCH:-BenchmarkStrongAdaptive\$|BenchmarkStrongAdaptiveHardware|BenchmarkNativeRenaming\$|BenchmarkNativeRenamingFaultArmed|BenchmarkNativeRenamingRecorded|BenchmarkNativeCounter|BenchmarkFreshBuild|BenchmarkInstantiate|BenchmarkCompileCold|BenchmarkBitBatching\$|BenchmarkPhasedInc|BenchmarkAACIncSerial|BenchmarkSweepExec|BenchmarkWire|BenchmarkCluster}"
parpattern="${PARBENCH:-Throughput}"
cpus="${CPUS:-1,2,4}"
scenarios="${SCENARIOS:-steady,burst,churn,phased,phased-churn,skew}"
wirescenarios="${WIRESCENARIOS:-steady,burst}"
wireaddr="${WIREADDR:-127.0.0.1:7419}"
clusterscenarios="${CLUSTERSCENARIOS:-steady,burst}"
clusterbase="${CLUSTERBASE:-7421}"
scendur="${SCENDUR:-3s}"

n=1
while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
out="BENCH_${n}.json"

raw=$(go test -run '^$' -bench "$pattern" -benchtime "$benchtime" .)
printf '%s\n' "$raw" >&2

if [ "$cpus" != "none" ]; then
	parraw=$(go test -run '^$' -bench "$parpattern" -benchtime "$benchtime" -cpu "$cpus" .)
	printf '%s\n' "$parraw" >&2
	raw="$raw
$parraw"
fi

if [ "$scenarios" != "none" ]; then
	for scen in $(printf '%s' "$scenarios" | tr ',' ' '); do
		scenrow=$(go run ./cmd/renameload -scenario "$scen" -duration "$scendur" -gobench)
		printf '%s\n' "$scenrow" >&2
		raw="$raw
$scenrow"
	done
fi

# The wire pass: the same catalog generators, but every operation crosses
# the batched binary protocol to a live renameserve on loopback (rows gain
# the /wire name suffix, so in-process and wire runs of one scenario sit
# side by side in the record).
if [ "$wirescenarios" != "none" ]; then
	srvbin=$(mktemp -t renameserve.XXXXXX)
	go build -o "$srvbin" ./cmd/renameserve
	"$srvbin" -addr "$wireaddr" -quiet &
	srvpid=$!
	trap 'kill "$srvpid" 2>/dev/null; rm -f "$srvbin"' EXIT
	for scen in $(printf '%s' "$wirescenarios" | tr ',' ' '); do
		scenrow=$(go run ./cmd/renameload -addr "$wireaddr" -scenario "$scen" -duration "$scendur" -gobench)
		printf '%s\n' "$scenrow" >&2
		raw="$raw
$scenrow"
	done
	kill "$srvpid" 2>/dev/null
	wait "$srvpid" 2>/dev/null || true
fi

# The cluster pass: three renameserve nodes on a loopback ring with
# disjoint name ranges, driven through the routed scatter path by
# renameload -ring (rows gain the /cluster name suffix, so in-process,
# wire, and cluster runs of one scenario sit side by side). Admission
# control runs at a representative non-shedding setting — the shed
# regime is CI's cluster-smoke leg, not a latency record.
if [ "$clusterscenarios" != "none" ]; then
	if [ -z "${srvbin:-}" ]; then
		srvbin=$(mktemp -t renameserve.XXXXXX)
		go build -o "$srvbin" ./cmd/renameserve
	fi
	ringfile=$(mktemp -t ring.XXXXXX)
	{
		echo "# bench cluster ring: id addr base span"
		for i in 0 1 2; do
			echo "$i 127.0.0.1:$((clusterbase + i)) $((i * 1048576)) 1048576"
		done
	} >"$ringfile"
	cpids=""
	for i in 0 1 2; do
		"$srvbin" -ring "$ringfile" -node "$i" -admit 64 -quiet &
		cpids="$cpids $!"
	done
	trap 'kill $cpids 2>/dev/null; rm -f "$srvbin" "$ringfile"' EXIT
	for scen in $(printf '%s' "$clusterscenarios" | tr ',' ' '); do
		scenrow=$(go run ./cmd/renameload -ring "$ringfile" -scenario "$scen" -duration "$scendur" -gobench)
		printf '%s\n' "$scenrow" >&2
		raw="$raw
$scenrow"
	done
	kill $cpids 2>/dev/null
	wait $cpids 2>/dev/null || true
fi

{
	echo '{'
	echo '  "schema": "bench/v1",'
	echo "  \"rev\": \"$(git rev-parse --short HEAD 2>/dev/null || echo unknown)\","
	echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
	echo "  \"go\": \"$(go env GOVERSION)\","
	echo "  \"cpus\": $(nproc 2>/dev/null || echo 1),"
	echo "  \"benchtime\": \"${benchtime}\","
	echo '  "results": ['
	printf '%s\n' "$raw" | awk '
		/^Benchmark/ {
			printf "%s    {\"name\": \"%s\", \"iters\": %s, \"metrics\": {", sep, $1, $2
			m = ""
			for (i = 3; i + 1 <= NF; i += 2) {
				unit = $(i + 1)
				gsub(/"/, "", unit)
				m = m sprintf("%s\"%s\": %s", (m == "" ? "" : ", "), unit, $i)
			}
			printf "%s}}", m
			sep = ",\n"
		}
		END { print "" }
	'
	echo '  ]'
	echo '}'
} >"$out"

echo "wrote $out"
