package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/serve"
)

// generators is the closed-loop client count: one per core, so the
// generators never outnumber the cores the system under test runs on.
var generators = runtime.NumCPU()

// setupReps is how many times each run builds and warms its system; the
// reported setup_s is the median, and the last build is the one measured.
const setupReps = 5

// windowSeconds is the nominal length of one measurement window. A run's
// op budget is split into equal consecutive windows, and the end-to-end
// throughput and latencies are medians over them, so a burst of
// interference from outside the process moves one window, not the result.
const windowSeconds = 1

// workload is one traffic mix and the system it runs against.
type workload struct {
	name string
	// rate is the nominal throughput in ops/s on the reference box (see
	// the package doc); rate × --seconds is the run's op budget, so runs
	// of different code compare memory at equal work.
	rate float64
	// opsPerReq is the mean ops per request, converting the op budget to
	// a request budget.
	opsPerReq float64
	// chunk is how many requests a generator claims at once from the
	// shared request counter.
	chunk uint64
	setup func(seed uint64, gens []*gen) (system, error)
}

var workloads = []workload{
	{name: "adaptive-waves", rate: 500e3, opsPerReq: waveOpsPerReq, chunk: 5, setup: setupWaves},
	{name: "pool-ops", rate: 1.7e6, opsPerReq: 1, chunk: 256, setup: setupPoolOps},
	{name: "cluster-batch", rate: 800e3, opsPerReq: batchOps, chunk: 4, setup: setupCluster},
}

// system is a workload's built and warmed system under test.
type system interface {
	// request runs request i on generator g; traced adds per-layer timing
	// and span recording around each call into a layer.
	request(g int, i uint64, traced bool)
	// setTrace arms or disarms the program's own trace surfaces, where the
	// workload reads them (the cluster stage echo).
	setTrace(on bool)
	// pools sums the serve.Pool counters of every pool the workload drives.
	pools() serve.Stats
	// perLayer adds the workload's per-layer metrics after the traced run.
	perLayer(m map[string]float64, traced *phaseStats)
	// programSpans returns the spans the program's own trace surfaces
	// recorded in the traced run, if the workload reads any.
	programSpans() []obs.Span
	close()
}

// gen is one closed-loop generator's measurement state, owned by its
// goroutine during a phase.
type gen struct {
	lat    *latRec
	ops    uint64
	failed uint64
	shed   uint64
	bad    error // first correctness violation
	log    spanLog
}

func newGen(id int) *gen {
	return &gen{lat: newLatRec(), log: newSpanLog(id)}
}

func (g *gen) violation(err error) {
	if err != nil && g.bad == nil {
		g.bad = err
	}
}

// phaseStats is one measured phase.
type phaseStats struct {
	wall               time.Duration
	ops, failed, sheds uint64
	lat                *timing
	a, b               procSnap
	poolA, poolB       serve.Stats
}

func (p *phaseStats) throughput() float64 { return ratio(float64(p.ops), p.wall.Seconds()) }

// runPhase drives requests first..first+reqs-1 from every generator in a
// closed loop: each generator claims chunks of request indices from one
// counter, so the generators share the budget and finish together. A
// generator stops early once limit has passed (a safety cap far above the
// nominal time). The phase's latencies are merged into lat, which the
// caller reuses across phases so the benchmark's own garbage does not
// move peak_rss_mb.
func runPhase(sys system, w *workload, gs []*gen, first, reqs uint64, traced bool, limit time.Duration, lat *timing) *phaseStats {
	for _, g := range gs {
		g.lat.reset()
		g.ops, g.failed, g.shed = 0, 0, 0
	}
	var next atomic.Uint64
	var wg sync.WaitGroup
	start := make(chan struct{})
	var deadline int64
	for gi := range gs {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			<-start
			for {
				lo := next.Add(w.chunk) - w.chunk
				if lo >= reqs || now() > deadline {
					return
				}
				for i := lo; i < min(lo+w.chunk, reqs); i++ {
					sys.request(gi, first+i, traced)
				}
			}
		}(gi)
	}
	ps := &phaseStats{poolA: sys.pools()}
	ps.a = snap()
	deadline = ps.a.at + int64(limit)
	close(start)
	wg.Wait()
	ps.b = snap()
	ps.poolB = sys.pools()
	ps.wall = time.Duration(ps.b.at - ps.a.at)
	recs := make([]*latRec, len(gs))
	for i, g := range gs {
		ps.ops += g.ops
		ps.failed += g.failed
		ps.sheds += g.shed
		recs[i] = g.lat
	}
	lat.mergeRecs(recs)
	ps.lat = lat
	return ps
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metric names
// and units it must report, so the two never drift apart.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: adaptive-waves, pool-ops or cluster-batch")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "nominal measured seconds; sizes the op budget")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition listing the metrics to report")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's span file")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	printEnv()

	gs := make([]*gen, generators)
	for i := range gs {
		gs[i] = newGen(i)
	}
	sys, setupS, err := build(w, *seed, gs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	defer sys.close()

	reqs := uint64(math.Ceil(w.rate * *seconds / w.opsPerReq))
	values := map[string]float64{}
	var res result
	var want []specMetric
	if *trace == 0 {
		res = endToEnd(sys, w, gs, reqs, *seconds, values)
		values["setup_s"] = setupS
		want = sp.EndToEnd
	} else {
		res = perLayer(sys, w, gs, reqs, *seconds, values)
		want = sp.PerLayer
		spans := sys.programSpans()
		for _, g := range gs {
			spans = append(spans, g.log.spans...)
		}
		printSelfTimes(os.Stdout, w.name, spans)
		if path, err := writeSpans(*out, w.name, *seed, spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Printf("spans %d written to %s\n", len(spans), path)
		}
	}

	// Report exactly the metrics the definition lists. A per-layer metric
	// of a layer this workload does not reach reads 0.
	res.Metrics = map[string]metricOut{}
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok && *trace == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: end-to-end metric %s not measured\n", m.Name)
			return 1
		}
		res.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	res.Correct = true
	for _, g := range gs {
		if g.bad != nil {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: correctness violation:", g.bad)
		}
	}
	if res.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation ran")
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd runs the op budget untraced in consecutive windows and reports
// the medians over the windows.
func endToEnd(sys system, w *workload, gs []*gen, reqs uint64, seconds float64, values map[string]float64) result {
	var res result
	var tput, p50, p99 []float64
	lat := &timing{}
	first := snap()
	windows := uint64(max(3, math.Round(seconds/windowSeconds)))
	per := reqs / windows
	for i := uint64(0); i < windows; i++ {
		ps := runPhase(sys, w, gs, i*per, per, false, timeCap(seconds)/time.Duration(windows), lat)
		report(w.name, fmt.Sprintf("untraced window=%d", i), ps)
		res.Attempted += ps.ops
		res.Failed += ps.failed
		tput = append(tput, ps.throughput())
		p50 = append(p50, ps.lat.quantile(0.50)/1e3)
		p99 = append(p99, ps.lat.quantile(0.99)/1e3)
	}
	values["throughput_ops_s"] = median(tput)
	values["latency_p50_us"] = median(p50)
	values["latency_p99_us"] = median(p99)
	values["peak_rss_mb"] = peakRSSMB()
	fmt.Printf("run workload=%s windows=%d ops=%d failed_ops_ratio=%.6f host_steal=%.3f\n",
		w.name, windows, res.Attempted, ratio(float64(res.Failed), float64(res.Attempted)), stealShare(first, snap()))
	return res
}

// perLayer runs half the op budget untraced, then half traced. The
// untraced half gives the counters that need no timing (runtime, wire,
// pool counters) and the base of the tracing overhead; the traced half
// gives the layer timings.
func perLayer(sys system, w *workload, gs []*gen, reqs uint64, seconds float64, values map[string]float64) result {
	lat := &timing{}
	limit := timeCap(seconds)
	pa := runPhase(sys, w, gs, 0, reqs/2, false, limit/2, lat)
	report(w.name, "untraced", pa)
	runtimeLayer(pa.a, pa.b, pa.ops, runtime.GOMAXPROCS(0), values)
	poolLayer(pa, values)
	sys.setTrace(true)
	pb := runPhase(sys, w, gs, reqs/2, reqs/2, true, limit/2, lat)
	sys.setTrace(false)
	report(w.name, "traced", pb)
	sys.perLayer(values, pb)
	values["trace.throughput_ratio"] = ratio(pb.throughput(), pa.throughput())
	fmt.Printf("trace_overhead workload=%s traced_ops_s=%.0f untraced_ops_s=%.0f traced/untraced=%.4f\n",
		w.name, pb.throughput(), pa.throughput(), values["trace.throughput_ratio"])
	return result{Attempted: pa.ops + pb.ops, Failed: pa.failed + pb.failed}
}

// timeCap is the wall-time safety cap of a run nominally seconds long: a
// run that reaches it stops early rather than overrun its caller's limit.
func timeCap(seconds float64) time.Duration {
	return time.Duration(3 * seconds * float64(time.Second))
}

// build sets the workload's system up setupReps times for the generators
// gs, tearing down all but the last, and returns the last with the median
// set-up time. The generators' measurement state is allocated by the
// caller, outside the timed set-up.
func build(w *workload, seed uint64, gs []*gen) (system, float64, error) {
	var times []float64
	var sys system
	for r := 0; r < setupReps; r++ {
		if sys != nil {
			sys.close()
			// Collect the torn-down system before the next build, so its
			// garbage neither slows that build nor moves peak_rss_mb.
			runtime.GC()
		}
		t0 := now()
		s, err := w.setup(seed, gs)
		if err != nil {
			return nil, 0, err
		}
		sys = s
		times = append(times, float64(now()-t0)/1e9)
	}
	med := median(times)
	fmt.Printf("setup workload=%s reps=%d seconds=%s median=%.4f\n", w.name, setupReps, fmtFloats(times), med)
	return sys, med, nil
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func report(workload, phase string, ps *phaseStats) {
	fmt.Printf("phase workload=%s %s ops=%d wall_s=%.3f throughput_ops_s=%.0f failed_ops_ratio=%.6f sheds=%d host_steal=%.3f\n",
		workload, phase, ps.ops, ps.wall.Seconds(), ps.throughput(), ratio(float64(ps.failed), float64(ps.ops)), ps.sheds,
		stealShare(ps.a, ps.b))
	fmt.Printf("timing workload=%s %s request_latency %s p50=%.3fus p99=%.3fus\n",
		workload, phase, tailInfo(&ps.lat.hist), ps.lat.quantile(0.5)/1e3, ps.lat.quantile(0.99)/1e3)
}

// runWarm runs warm on every generator's goroutine and waits for them.
func runWarm(gens int, warm func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < gens; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			warm(g)
		}(g)
	}
	wg.Wait()
}

// meanTiming prints one traced per-layer timing (sample count, tail) and
// returns its mean in nanoseconds. k > 0 names the wave width it is for.
func meanTiming(workload, name string, k int, h *load.Hist) float64 {
	if k > 0 {
		name = fmt.Sprintf("%s.k%d", name, k)
	}
	fmt.Printf("timing workload=%s traced %s %s mean=%.3fus\n", workload, name, tailInfo(h), h.Mean()/1e3)
	return h.Mean()
}

// poolLayer derives the serve.* pool-counter metrics of an untraced phase.
func poolLayer(ps *phaseStats, m map[string]float64) {
	a, b := ps.poolA, ps.poolB
	m["serve.cas_retries_per_kop"] = ratio(float64(b.Retries-a.Retries)*1000, float64(ps.ops))
	checkouts := float64(b.Hits - a.Hits + b.Overflows - a.Overflows)
	m["serve.overflow_ratio"] = ratio(float64(b.Overflows-a.Overflows), checkouts)
	m["serve.instances"] = float64(b.Instances)
}

// sumPools adds the pool counters poolLayer reads.
func sumPools(stats ...serve.Stats) serve.Stats {
	var t serve.Stats
	for _, s := range stats {
		t.Instances += s.Instances
		t.Hits += s.Hits
		t.Overflows += s.Overflows
		t.Retries += s.Retries
	}
	return t
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, errors.New(path + ": no metrics listed")
	}
	return &sp, nil
}

// printEnv stamps the run with the environment it measured.
func printEnv() {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"generators": generators,
		"go":         runtime.Version(),
		"git_rev":    gitRev(),
		"cpu":        cpuModel(),
		"transport":  "loopback",
	}
	b, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Printf("env %s\n", b)
}

// gitRev reads the checked-out commit from .git without starting a
// process; "unknown" outside a git work tree.
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rev, r, ok := strings.Cut(line, " "); ok && r == ref {
				return rev
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fmtFloats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(s, ",") + "]"
}
