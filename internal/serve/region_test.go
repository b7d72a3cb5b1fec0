package serve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/shmem"
	"repro/internal/sortnet"
	"repro/internal/tas"
)

// regionAtInit reports the first register of r that does not hold its
// initial value, reading the registers directly (outside any execution).
func regionAtInit(t *testing.T, name string, r *shmem.Region) int {
	t.Helper()
	p := shmem.NewNative(0).NewProc(0)
	n, bad := 0, 0
	r.Each(func(reg shmem.CASReg, init uint64) {
		if v := reg.Read(p); v != init {
			if bad == 0 {
				t.Errorf("%s: register %d = %d after Put, want its initial %d", name, n, v, init)
			}
			bad++
		}
		n++
	})
	if bad > 0 {
		t.Errorf("%s: %d of %d registers not restored", name, bad, n)
	}
	return n
}

// TestPutRestoresEveryRegionRegister runs native k=32 waves (renaming, and
// counting with Inc then Read) through pooled instances, Puts them, and
// then checks every register of each instance's region directly: all of
// them must hold their initial value again, not merely yield fresh names.
func TestPutRestoresEveryRegionRegister(t *testing.T) {
	const k = 32
	bp := core.CompileStrongAdaptive(sortnet.BaseOEM)
	ren := New(Options{Shards: 1, PerShard: 1}, func(mem shmem.Mem) *core.StrongAdaptive {
		return bp.Instantiate(mem, tas.MakeUnit)
	})
	cnt := New(Options{Shards: 1, PerShard: 1}, func(mem shmem.Mem) *core.MonotoneCounter {
		return core.NewMonotoneCounter(mem, tas.MakeTwoProc)
	})
	for wave := 0; wave < 3; wave++ {
		in := ren.Get()
		names := make([]uint64, k)
		in.Execute(k, func(p shmem.Proc, sa *core.StrongAdaptive) {
			names[p.ID()] = sa.Rename(p, uint64(p.ID())+1)
		})
		if err := core.CheckUniqueTight(names); err != nil {
			t.Fatalf("wave %d: %v", wave, err)
		}
		sa := in.Obj
		in.Put()
		if n := regionAtInit(t, "renamer", sa.Region()); n < 2*k {
			t.Fatalf("renamer region holds %d registers after a k=%d wave, want at least %d", n, k, 2*k)
		}

		cin := cnt.Get()
		cin.Execute(k, func(p shmem.Proc, c *core.MonotoneCounter) {
			c.Inc(p)
			c.Read(p)
		})
		c := cin.Obj
		cin.Put()
		regionAtInit(t, "counter", c.Region())
	}
}

// TestExecCachedPerK pins that an instance keeps one execution context per
// process count: a workload cycling k allocates no more per wave than one
// holding k fixed at its largest value, and Put disarms every cached
// context.
func TestExecCachedPerK(t *testing.T) {
	pool := newRenamerPool(Options{Shards: 1, PerShard: 1})
	body := func(shmem.Proc, *core.StrongAdaptive) {}
	wave := func(k int) {
		in := pool.Get()
		in.Execute(k, body)
		in.Put()
	}
	wave(2)
	wave(3) // warm both contexts
	cycling := testing.AllocsPerRun(200, func() { wave(2); wave(3) })
	fixed := testing.AllocsPerRun(200, func() { wave(3); wave(3) })
	if cycling > fixed {
		t.Fatalf("cycling k allocates %.1f per pair of waves, fixed k %.1f: contexts are rebuilt", cycling, fixed)
	}

	in := pool.Get()
	in.Exec(2).Record()
	in.Exec(3).Record()
	in.Put()
	in = pool.Get()
	defer in.Put()
	for _, k := range []int{2, 3} {
		if in.Exec(k).Log() != nil {
			t.Fatalf("k=%d context still recording after Put", k)
		}
	}
}
