package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/phase"
	"repro/internal/serve"
	"repro/internal/shmem"
	"repro/internal/sortnet"
	"repro/internal/tas"
)

// Throughput is the serving-engine measurement behind renamebench
// -parallel: sustained operations per second against sharded pools of
// pre-instantiated object graphs, swept over goroutine counts and shard
// counts. Unlike the E-tables it is wall-clock (native runtime), so the
// numbers are machine-dependent; the shapes — shard scaling, the cost of
// de-sharding to one freelist — are what the table is for. The go-test
// counterpart (the *Throughput benchmarks in bench_parallel_test.go, run
// with -cpu) is what scripts/bench.sh records into BENCH_<n>.json.
func Throughput(maxG int, window time.Duration) *Table {
	if maxG < 1 {
		maxG = 1
	}
	if window <= 0 {
		window = 100 * time.Millisecond
	}
	t := &Table{
		ID:    "T1",
		Title: "serving throughput (sharded pools, native runtime)",
		Claim: "checkout/recycle over per-shard lock-free freelists serves " +
			"renaming and counting operations at sustained throughput from " +
			"arbitrarily many goroutines",
		Cols: []string{"service", "shards", "goroutines", "ops", "ops/sec", "ns/op"},
		Notes: []string{
			fmt.Sprintf("wall-clock on GOMAXPROCS=%d; window %v per cell", runtime.GOMAXPROCS(0), window),
			"rename = one solo Rename per checkout on a fresh graph; counter = one Inc+Read per checkout",
			"counter/phased = one Inc+Read on the shared contention-adaptive phased counter (shards column = serving lanes)",
		},
	}

	gs := sweepG(maxG)
	shardCounts := []int{1, 2 * runtime.GOMAXPROCS(0)}
	if shardCounts[1] <= shardCounts[0] {
		shardCounts = shardCounts[:1]
	}

	saBP := core.CompileStrongAdaptive(sortnet.BaseOEM)
	services := []struct {
		name string
		run  func(shards, g int) (ops uint64, elapsed time.Duration)
	}{
		{"rename/pool", func(shards, g int) (uint64, time.Duration) {
			pool := serve.New(serve.Options{Shards: shards}, func(mem shmem.Mem) *core.StrongAdaptive {
				return saBP.Instantiate(mem, tas.MakeUnit)
			})
			return hammer(g, window, func(_ int) {
				pool.Do(func(p shmem.Proc, sa *core.StrongAdaptive) { sa.Rename(p, 1) })
			})
		}},
		{"counter/pool", func(shards, g int) (uint64, time.Duration) {
			pool := serve.New(serve.Options{Shards: shards}, func(mem shmem.Mem) *core.MonotoneCounter {
				return core.NewMonotoneCounter(mem, tas.MakeUnit)
			})
			return hammer(g, window, func(_ int) {
				pool.Do(func(p shmem.Proc, c *core.MonotoneCounter) {
					c.Inc(p)
					c.Read(p)
				})
			})
		}},
		{"counter/phased", func(shards, g int) (uint64, time.Duration) {
			pool := phase.NewPool(phase.Options{Lanes: shards})
			return hammer(g, window, func(_ int) {
				pool.Inc()
				pool.Read()
			})
		}},
	}

	for _, svc := range services {
		for _, shards := range shardCounts {
			for _, g := range gs {
				ops, elapsed := svc.run(shards, g)
				opsPerSec := float64(ops) / elapsed.Seconds()
				t.AddRow(svc.name, d(shards), d(g), d(ops), f1(opsPerSec),
					f1(float64(elapsed.Nanoseconds())/float64(ops)*float64(g)))
			}
		}
	}
	return t
}

// sweepG returns the goroutine sweep 1, 2, 4, ..., maxG (maxG included).
func sweepG(maxG int) []int {
	var gs []int
	for g := 1; g < maxG; g *= 2 {
		gs = append(gs, g)
	}
	return append(gs, maxG)
}

// hammer runs op from g goroutines for roughly the window and returns the
// total operation count and the true elapsed time.
func hammer(g int, window time.Duration, op func(worker int)) (uint64, time.Duration) {
	var wg sync.WaitGroup
	counts := make([]uint64, g*8) // one counter per worker, padded stride
	start := time.Now()
	deadline := start.Add(window)
	wg.Add(g)
	for w := 0; w < g; w++ {
		go func(w int) {
			defer wg.Done()
			var n uint64
			for {
				// Check the clock every few ops: timestamps are cheap but
				// not free at ~200ns/op.
				for i := 0; i < 64; i++ {
					op(w)
				}
				n += 64
				if time.Now().After(deadline) {
					break
				}
			}
			counts[w*8] = n
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var total uint64
	for w := 0; w < g; w++ {
		total += counts[w*8]
	}
	return total, elapsed
}
