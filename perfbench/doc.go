// Command perfbench is the repository's benchmark: one program that builds
// every system under test in-process, drives it with closed-loop
// generators, checks every value the system returns against the
// specification of the object that returned it, and prints the metrics
// BENCHMARK.json lists. Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds the program (its own module, replacing repro with the
// parent directory) with every build output under .bench_build/perfbench.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The lines before it give
// the environment stamp (nproc, GOMAXPROCS, Go version, git revision, CPU
// model, transport), each set-up time, each phase's throughput, failed
// ops ratio and host steal share (the CPU time the hypervisor gave to
// other guests), and every timing's sample count with the highest
// percentile that has at least ten samples beyond it (information only,
// gated nowhere). A correctness violation prints correct=false and exits 1.
//
// # Runs
//
// Every generator runs a closed loop: it sends its next request when the
// previous one returns. There are GOMAXPROCS = nproc generators, and all
// traffic stays in the process or on loopback. A run is bounded by an op
// count, rate × --seconds, where rate is the workload's throughput on the
// reference box (2-vCPU Intel Xeon, Go 1.24), so two versions of the
// program are compared at equal work and a run lasts about --seconds
// there. Inputs (wave widths, op kinds, keys) derive from --seed and the
// request index, never from which generator runs the request.
//
// Set-up is built and warmed five times; setup_s is the median, and the
// last build is measured. With --trace 0 the op budget runs in
// consecutive windows of about one second each, and throughput and the
// latency percentiles are medians over the windows, so a burst of
// interference from outside the process moves one window, not the result.
//
// With --trace 0 the run reports the end-to-end metrics:
//
//	setup_s           compile blueprints, build pools, start nodes, dial, warm up
//	throughput_ops_s  object calls (Rename, Inc, Read) completed per second
//	latency_p50_us    median request time: one wave, one op or one batch
//	latency_p99_us    99th percentile request time
//	peak_rss_mb       peak resident memory of the process
//
// A window's percentiles are exact order statistics of an evenly strided
// subsample of at most 2^20 requests per generator. The failed ops ratio
// (errors plus sheds over ops attempted) is printed on the phase line and
// carried by the result's attempted and failed fields; it is not a metric
// of its own because it is 0 on a healthy run and the definition allows
// only metrics that are never 0.
//
// With --trace 1 the run reports the per-layer metrics. It runs half the
// op budget untraced, then half traced. The untraced half gives the
// counters that need no timing (runtime, wire, pool counters) and the
// base of the tracing overhead, trace.throughput_ratio (traced over
// untraced throughput, also printed as trace_overhead). The traced half
// times each call the benchmark makes into a layer's public functions,
// from the benchmark's own code, and records the calls of one request in
// sixteen as obs.Span trees. At exit it writes the spans to
// .bench_build/perfbench/spans-<workload>-<seed>.jsonl and prints each
// span kind's mean duration and self time (duration minus the part of it
// its children cover). The program gets no tracing of its own; the only
// program surfaces read are shmem.Stats step counts, serve.Pool.Stats,
// the cluster client's stage echo (SetTrace, Stages) with its sampled
// span chains, /proc/self/io, getrusage and runtime/metrics. A per-layer
// metric of a layer the workload does not reach reads 0.
//
// # Workloads
//
// adaptive-waves: one wave in flight per generator. A wave checks a
// StrongAdaptive (or a MonotoneCounter) out of its pool and runs one
// k-process execution through Instance.Exec(k).Run. Every block of ten
// waves runs each k in {2, 4, 8, 16, 32} once as a renaming wave (each
// process calls Rename) and once as a counting wave (each process calls
// Inc, then Read), alternating, in an order drawn from the seed per
// block; so writes run beside reads on the same core code. Nearly all
// time is in the paper's algorithms (core, tas, sortnet, splitter, maxreg
// on shmem registers) and in exec's fan-out, with one serve checkout per
// up to 32 names. Checks: a renaming wave's names are exactly {1..k}; a
// counting wave's Inc values are distinct in [1..k], each Read lies
// between the reader's own Inc value and k, and a quiescent Read is k.
//
// pool-ops: each generator calls Pool.DoKeyed with one solo op, rename 4 :
// inc 3 : read 3, keyed Zipf(0.99) over 64 targets as in the load
// catalog's skew scenario. Each op is alone on a freshly reset instance,
// so serve's checkout and reset-on-Put dominate (a CPU profile puts 60% of
// a pooled rename in Instance.Put and about 10% in the algorithm), and the
// hot keys make the generators collide on one shard's freelist. Check:
// each value meets the solo-call specification of a fresh object (Rename
// returns 1, Inc returns 1, Read returns 0).
//
// cluster-batch: a 2-node ring of netserve servers in the process, with
// admission control armed at a per-shard bound above the workload's
// concurrency, so the gate runs on every op and sheds nothing in a
// healthy run. One cluster client holds one connection per node; each
// generator commits 64-op batches of rename 4 : inc 3 : read 3 keyed
// Zipf(0.99) over 1024 keys. It is the only workload that crosses wire,
// netserve (session, admission, reply coalescing) and cluster (routing,
// scatter-gather); the same serve and core ops run inside at a small
// share of each round trip. Check: each rename reply lies in
// [Base, Base+Span) of the node Ring.Route(key) selects, and each Inc
// returns at least 1.
//
// # Which layer moves which end-to-end metric
//
// Each per-layer metric names the end-to-end metric and workload it
// should move; elsewhere the prediction is no change unless stated.
//
//	core      core.rename_steps.k2/.k8/.k32, core.inc_steps.k32,
//	          core.tas_per_name.k32, core.comparators_per_name.k32
//	          (means over processes from shmem.Stats.PerProc and the
//	          procs' step counters)
//	            -> throughput_ops_s, latency_p50_us on adaptive-waves
//	core      core.proc_us.k2/.k32 (one process's body in a wave)
//	            -> latency_p50_us on adaptive-waves
//	core      core.op_ns (a solo object call)
//	            -> throughput_ops_s on pool-ops; small on cluster-batch
//	exec      exec.overhead_us.k2/.k32 (wave wall time minus the slowest
//	          process body)
//	            -> latency_p50_us on adaptive-waves
//	serve     serve.get_ns, serve.put_ns
//	            -> throughput_ops_s on pool-ops; small on cluster-batch
//	serve     serve.put_us.k32 (Put after a k=32 wave)
//	            -> latency_p99_us on adaptive-waves
//	serve     serve.cas_retries_per_kop, serve.overflow_ratio,
//	          serve.instances
//	            -> latency_p99_us, peak_rss_mb on pool-ops
//	netserve  netserve.srv_us_per_frame, .exec_us_per_frame,
//	          .admit_us_per_frame, .queue_us_per_frame (srv - admit -
//	          exec), .ops_per_frame, .shed_ratio
//	            -> latency_p50_us, throughput_ops_s, failed ops on
//	               cluster-batch
//	wire      wire.syscalls_per_op, wire.bytes_per_op (/proc/self/io)
//	            -> throughput_ops_s on cluster-batch
//	cluster   cluster.rtt_us_per_subbatch, cluster.net_us_per_subbatch
//	          (rtt - srv), cluster.fanout_us_per_commit (commit - mean
//	          sub-batch rtt), cluster.subbatches_per_commit
//	            -> latency_p50_us on cluster-batch
//	runtime   runtime.cpu_util, .cpu_us_per_op, .alloc_b_per_op,
//	          .allocs_per_op, .gc_pause_p99_us, .sched_latency_p99_us
//	            -> latency_p99_us on every workload; cpu_util shows
//	               whether a throughput change was CPU-bound
//	host      host.steal_ratio (/proc/stat steal over the vCPUs' time)
//	            -> no prediction: it is interference from outside, and
//	               explains a run that moved without a code change
//
// The wire counters count both ends of each connection, since client and
// servers share the process.
//
// # Noise and bounds
//
// On the reference box (a shared 2-vCPU VM) the speed of the machine
// itself shifts by up to about 20% for minutes at a time: a fixed CPU
// loop varies by that much, and so does every workload. In quiet periods
// ten 30-second runs per workload, one seed each, gave these spreads
// (interquartile range over median): throughput 0.04-0.19, p50 0.05-0.23,
// p99 0.04-0.13, peak_rss_mb at most 0.022. In a period when the
// hypervisor took about a quarter of the vCPUs' time (host_steal 0.26),
// cluster-batch fell from about 800k to 440k ops/s and its p99 rose from
// about 300 us to 2.4 ms. Windowed medians remove bursts shorter than a
// window but not these shifts, so the throughput and latency bounds are
// 0.25, a change smaller than that needs the interleaved A/B of repeated
// runs to be resolved, and runs with a high host_steal say nothing about
// the code.
//
// # Left unmeasured
//
// internal/phase: the phased counter's auto controller is bimodal. With
// two closed-loop goroutines, 3 of 7 identical runs never left joined mode
// (0 switches) and ran at 147k-189k ops/s; the others split and ran at
// 2.4M-2.6M ops/s. No bound could separate a code change from that.
//
// Open-loop tails: a generator that paces arrivals measures its own timer.
// Sleep-paced arrivals gave p50 of about 600 us at both 5k and 20k ops/s;
// spin-paced arrivals gave p50 of 113-186 us and p99 of 6.1-7.8 ms, while
// a closed-loop 64-op cluster batch completes in about 80 us (p50).
//
// internal/sim and internal/sweep: the simulator and the sweep engine are
// on no served path.
package main
