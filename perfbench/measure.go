package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/load"
)

// epoch anchors now: time.Since on a monotonic base is one clock read
// (about 45 ns on the reference box), time.Now is two.
var epoch = time.Now()

// now returns monotonic nanoseconds since the benchmark started.
func now() int64 { return int64(time.Since(epoch)) }

// sampleCap bounds the exact-quantile subsample each recorder keeps, so
// the benchmark's own memory does not grow with the op budget.
const sampleCap = 1 << 20

// latRec records one timing. Every sample goes into a load.Hist (count,
// mean and the far tail); a strided subsample of at most sampleCap values
// is kept for exact quantiles. When the subsample fills, every other value
// is dropped and the stride doubles, so the kept samples stay evenly
// spread over the run.
type latRec struct {
	h      load.Hist
	buf    []uint32
	stride uint64
	n      uint64
}

func newLatRec() *latRec {
	return &latRec{buf: make([]uint32, 0, sampleCap), stride: 1}
}

func (r *latRec) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	r.h.Record(v)
	if r.n%r.stride == 0 {
		if len(r.buf) == cap(r.buf) {
			half := r.buf[:0]
			for i := 0; i < len(r.buf); i += 2 {
				half = append(half, r.buf[i])
			}
			r.buf = half
			r.stride *= 2
		}
		if r.n%r.stride == 0 {
			r.buf = append(r.buf, uint32(min(v, math.MaxUint32)))
		}
	}
	r.n++
}

func (r *latRec) reset() {
	r.h.Reset()
	r.buf = r.buf[:0]
	r.stride = 1
	r.n = 0
}

// timing is the merge of several generators' recorders.
type timing struct {
	hist   load.Hist
	sorted []uint32
}

// mergeRecs merges recorders into t, reusing its sample buffer, and
// thins each subsample to the coarsest stride among them so every
// generator's samples carry equal weight.
func (t *timing) mergeRecs(recs []*latRec) {
	t.hist.Reset()
	t.sorted = t.sorted[:0]
	var stride uint64 = 1
	for _, r := range recs {
		t.hist.Merge(&r.h)
		stride = max(stride, r.stride)
	}
	for _, r := range recs {
		step := int(stride / r.stride)
		for i := 0; i < len(r.buf); i += step {
			t.sorted = append(t.sorted, r.buf[i])
		}
	}
	slices.Sort(t.sorted)
}

// quantile returns the exact q-quantile of the subsample in nanoseconds,
// interpolated between neighbouring order statistics.
func (t *timing) quantile(q float64) float64 {
	s := t.sorted
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return float64(s[len(s)-1])
	}
	frac := pos - float64(lo)
	return float64(s[lo]) + frac*(float64(s[lo+1])-float64(s[lo]))
}

var (
	tailFractions = []float64{0.5, 0.1, 0.01, 1e-3, 1e-4, 1e-5, 1e-6}
	tailLabels    = []string{"p50", "p90", "p99", "p99.9", "p99.99", "p99.999", "p99.9999"}
)

// tailInfo formats a histogram's sample count and the highest standard
// percentile with at least ten samples beyond it. It is printed for
// information and gated nowhere.
func tailInfo(h *load.Hist) string {
	n := h.Count()
	if n == 0 {
		return "n=0"
	}
	best := -1
	for i, tail := range tailFractions {
		if tail*float64(n) >= 10 {
			best = i
		}
	}
	if best < 0 {
		return fmt.Sprintf("n=%d (fewer than 10 samples beyond p50)", n)
	}
	return fmt.Sprintf("n=%d %s=%.3fus", n, tailLabels[best], float64(h.Quantile(1-tailFractions[best]))/1e3)
}

// procSnap is a point-in-time reading of the process counters the
// per-layer runtime and wire metrics difference: rusage CPU time,
// /proc/self/io syscall and byte counts, runtime/metrics, and the host's
// steal time from /proc/stat.
type procSnap struct {
	at       int64
	cpu      time.Duration
	steal    uint64 // clock ticks the hypervisor ran something else
	syscalls uint64
	ioBytes  uint64
	ioOK     bool
	allocB   uint64
	allocs   uint64
	gcPause  *metrics.Float64Histogram
	schedLat *metrics.Float64Histogram
}

var rtSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func snap() procSnap {
	s := procSnap{at: now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.syscalls, s.ioBytes, s.ioOK = readProcIO()
	s.steal = readSteal()
	ms := make([]metrics.Sample, len(rtSamples))
	for i, name := range rtSamples {
		ms[i].Name = name
	}
	metrics.Read(ms)
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.allocB = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		s.allocs = ms[1].Value.Uint64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64Histogram {
		s.gcPause = ms[2].Value.Float64Histogram()
	}
	if ms[3].Value.Kind() == metrics.KindFloat64Histogram {
		s.schedLat = ms[3].Value.Float64Histogram()
	}
	return s
}

// readProcIO returns syscr+syscw and rchar+wchar from /proc/self/io.
func readProcIO() (calls, bytes uint64, ok bool) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, found := strings.Cut(sc.Text(), ":")
		if !found {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "syscr", "syscw":
			calls += n
		case "rchar", "wchar":
			bytes += n
		}
	}
	return calls, bytes, sc.Err() == nil
}

// readSteal returns the steal field of /proc/stat's aggregate cpu line:
// time, in clock ticks, that the hypervisor gave this machine's vCPUs to
// someone else. It is 0 where the field is absent.
func readSteal() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64) // a malformed field reads as no steal
	return v
}

// clockTicks is USER_HZ, the unit of /proc/stat (100 on Linux).
const clockTicks = 100

// stealShare is the share of the machine's CPU time, all vCPUs, that the
// hypervisor took between two snapshots: interference from outside the
// process, printed with each phase to explain its spread.
func stealShare(a, b procSnap) float64 {
	wall := float64(b.at-a.at) / 1e9
	return ratio(float64(b.steal-a.steal)/clockTicks, wall*float64(runtime.NumCPU()))
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeLayer derives the runtime.* and wire.* per-layer metrics from two
// snapshots around a phase that completed ops operations.
func runtimeLayer(a, b procSnap, ops uint64, procs int, m map[string]float64) {
	wall := float64(b.at - a.at)
	cpu := float64(b.cpu - a.cpu)
	m["runtime.cpu_util"] = ratio(cpu, wall*float64(procs))
	m["runtime.cpu_us_per_op"] = ratio(cpu/1e3, float64(ops))
	m["runtime.alloc_b_per_op"] = ratio(float64(b.allocB-a.allocB), float64(ops))
	m["runtime.allocs_per_op"] = ratio(float64(b.allocs-a.allocs), float64(ops))
	m["runtime.gc_pause_p99_us"] = histDeltaQuantile(a.gcPause, b.gcPause, 0.99) * 1e6
	m["runtime.sched_latency_p99_us"] = histDeltaQuantile(a.schedLat, b.schedLat, 0.99) * 1e6
	m["host.steal_ratio"] = stealShare(a, b)
	if a.ioOK && b.ioOK {
		m["wire.syscalls_per_op"] = ratio(float64(b.syscalls-a.syscalls), float64(ops))
		m["wire.bytes_per_op"] = ratio(float64(b.ioBytes-a.ioBytes), float64(ops))
	}
}

// histDeltaQuantile returns the q-quantile, in the histogram's unit, of
// the samples b holds beyond a (same bucket layout: one process, one
// metric). It reports the upper edge of the bucket holding the quantile,
// or 0 when no sample landed between the snapshots.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum >= target {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 0) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}

// ratio is a/b, or 0 when b is 0, so no metric reads NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
