package exec

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/shmem"
)

// TestRunGroupDisarmedRunAllocationFree pins the execution layer's
// steady state on the native runtime: a disarmed Run reuses its group and
// the runtime's parked workers, so it allocates nothing.
func TestRunGroupDisarmedRunAllocationFree(t *testing.T) {
	const k = 8
	rt := shmem.NewNative(3)
	ex := New(rt, k)
	ctr := rt.NewCASReg(0)
	body := func(p shmem.Proc) { ctr.CompareAndSwap(p, 0, 1) }
	ex.Run(body)
	if n := testing.AllocsPerRun(1000, func() { ex.Run(body) }); n != 0 {
		t.Fatalf("disarmed Execution.Run(k=%d) allocates %.0f times per run, want 0", k, n)
	}
}

// TestWorkersSurviveCrashRun: a FaultPlan crash unwinds the process body,
// not its worker. A disarmed run on the same Execution afterwards renames
// tightly, reports no crash set, and starts no new worker goroutines.
func TestWorkersSurviveCrashRun(t *testing.T) {
	const k = 8
	rt := shmem.NewNative(7)
	// Park at least 2k workers first: then a k-process run finds an idle
	// one for every process even while the previous run's workers are
	// still on their way back.
	var started atomic.Int64
	rt.Run(2*k, func(shmem.Proc) {
		started.Add(1)
		for started.Load() < 2*k {
			runtime.Gosched()
		}
	})

	ex := New(rt, k)
	sa := newRenamer(rt)
	names := make([]uint64, k)
	body := func(p shmem.Proc) { names[p.ID()] = sa.Rename(p, uint64(p.ID())+1) }
	ex.Faults(NewFaultPlan().CrashAt(2, 4).CrashAt(5, 0))
	if st := ex.Run(body); !st.Crashed[2] || !st.Crashed[5] {
		t.Fatalf("crashes did not fire: %v", st.Crashed)
	}
	before := runtime.NumGoroutine()

	ex.Faults(nil)
	sa.Reset()
	st := ex.Run(body)
	if st.Crashed != nil {
		t.Fatalf("disarmed run after a crash run reports crashes: %v", st.Crashed)
	}
	if err := core.CheckUniqueTight(names); err != nil {
		t.Fatalf("disarmed run after a crash run: %v", err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("disarmed run after a crash run grew goroutines %d -> %d", before, after)
	}
}
