package shmem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// barrierBody returns a body whose k processes all wait until every one of
// them has started, so one execution holds k workers busy at once.
func barrierBody(k int) func(Proc) {
	var started atomic.Int64
	return func(Proc) {
		started.Add(1)
		for started.Load() < int64(k) {
			runtime.Gosched()
		}
	}
}

// TestRunGroupAllocationFree pins the steady state of a reused group: the
// proc contexts, Stats and wait group are the group's own, and the
// processes run on parked workers, so a disarmed Run allocates nothing.
func TestRunGroupAllocationFree(t *testing.T) {
	const k = 8
	rt := NewNative(3)
	ctr := rt.NewCASReg(0)
	g := rt.NewRunGroup(k)
	body := func(p Proc) { ctr.CompareAndSwap(p, 0, 1) }
	g.Run(barrierBody(k))
	if n := testing.AllocsPerRun(1000, func() { g.Run(body) }); n != 0 {
		t.Fatalf("RunGroup.Run(k=%d) allocates %.0f times per run, want 0", k, n)
	}
}

// TestWorkerNativeRunAllocations pins Native.Run to its per-call records:
// the proc slice, the Stats and its PerProc slice, and the wait group the
// workers signal. Nothing per process.
func TestWorkerNativeRunAllocations(t *testing.T) {
	const k = 8
	rt := NewNative(3)
	body := func(Proc) {}
	rt.Run(k, barrierBody(k))
	if n := testing.AllocsPerRun(1000, func() { rt.Run(k, body) }); n != 4 {
		t.Fatalf("Native.Run(k=%d) allocates %.0f times per run, want 4", k, n)
	}
}

// TestWorkerPoolBounded: sequential executions reuse the parked workers,
// so a thousand k=8 runs leave the goroutine count where the first run
// (which had all eight processes running at once) put it, give or take
// the workers still on their way back to the channel when a run ends.
func TestWorkerPoolBounded(t *testing.T) {
	const k = 8
	rt := NewNative(5)
	g := rt.NewRunGroup(k)
	g.Run(barrierBody(k))
	base := runtime.NumGoroutine()
	body := func(p Proc) { p.Step(OpRead) }
	for i := 0; i < 1000; i++ {
		st := g.Run(body)
		if st.PerProc[k-1].Steps() != 1 {
			t.Fatalf("run %d: proc %d took %d steps, want 1", i, k-1, st.PerProc[k-1].Steps())
		}
	}
	if got := runtime.NumGoroutine(); got > base+k {
		t.Fatalf("1000 runs grew goroutines from %d to %d, want at most +%d", base, got, k)
	}
}

// TestWorkerGoexit: a body that leaves through runtime.Goexit (as
// t.FailNow does) still completes its process, so Run returns, and the
// next Run on the same group works.
func TestWorkerGoexit(t *testing.T) {
	const k = 4
	rt := NewNative(7)
	g := rt.NewRunGroup(k)
	g.Run(func(p Proc) {
		p.Step(OpWrite)
		if p.ID() == 1 {
			runtime.Goexit()
		}
	})
	st := g.Run(func(p Proc) { p.Step(OpRead) })
	for i := range st.PerProc {
		if st.PerProc[i].Steps() != 1 {
			t.Fatalf("proc %d took %d steps after a Goexit run, want 1", i, st.PerProc[i].Steps())
		}
	}
}

// TestRunGroupConcurrentGroups runs four groups from four goroutines at
// once: the workers are shared, the groups' contexts are not, and every
// group's counter must come out exact. Run it under -race.
func TestRunGroupConcurrentGroups(t *testing.T) {
	const groups, k, runs = 4, 8, 200
	rt := NewNative(11)
	var wg sync.WaitGroup
	errs := make(chan string, groups)
	for gi := 0; gi < groups; gi++ {
		g := rt.NewRunGroup(k)
		ctr := rt.NewCASReg(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				st := g.Run(func(p Proc) {
					for {
						v := ctr.Read(p)
						if ctr.CompareAndSwap(p, v, v+1) {
							return
						}
					}
				})
				if len(st.PerProc) != k {
					errs <- "wrong Stats width"
					return
				}
			}
			p := rt.NewProc(0)
			if v := ctr.Read(p); v != k*runs {
				errs <- "lost increments"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
