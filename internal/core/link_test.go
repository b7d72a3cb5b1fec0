package core

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/sortnet"
	"repro/internal/tas"
)

// TestCompNodeFitsCacheLine pins the comparator node's size: the linked
// walk touches one node per comparator, and keeping the key and down wire
// (rather than the 32-byte sortnet.Comp) keeps a node within the 64 bytes
// of a cache line.
func TestCompNodeFitsCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(compNode{}); n > 64 {
		t.Fatalf("compNode is %d bytes, want at most 64", n)
	}
}

// TestLinkedWalkWarmMatchesFresh checks that successor links are a pure
// topology cache on the simulator: an execution on an instance whose links
// were warmed by executions under other seeds returns the same names with
// the same per-process steps and events as one on a fresh instance.
func TestLinkedWalkWarmMatchesFresh(t *testing.T) {
	rename := func(sa *StrongAdaptive, names []uint64) func(p shmem.Proc) {
		return func(p shmem.Proc) {
			names[p.ID()] = sa.Rename(p, uint64(p.ID())*7919+1)
		}
	}
	for _, k := range []int{2, 8, 32} {
		for seed := uint64(0); seed < 6; seed++ {
			fresh := sim.New(seed, sim.NewRandom(seed))
			want := make([]uint64, k)
			wantStats := fresh.Run(k, rename(newStrongAdaptive(fresh), want))

			rt := sim.New(seed+100, sim.NewRandom(seed+100))
			sa := newStrongAdaptive(rt)
			scratch := make([]uint64, 32)
			for _, warm := range []uint64{seed + 100, seed + 200, seed + 300} {
				sa.Reset()
				rt.Reset(warm, sim.NewRandom(warm))
				rt.Run(32, rename(sa, scratch))
			}
			sa.Reset()
			rt.Reset(seed, sim.NewRandom(seed))
			got := make([]uint64, k)
			gotStats := rt.Run(k, rename(sa, got))

			if err := CheckUniqueTight(got); err != nil {
				t.Fatalf("k=%d seed=%d: warm instance: %v", k, seed, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("k=%d seed=%d: names diverged\nfresh: %v\nwarm:  %v", k, seed, want, got)
			}
			if !reflect.DeepEqual(wantStats, gotStats) {
				t.Fatalf("k=%d seed=%d: stats diverged\nfresh: %+v\nwarm:  %+v", k, seed, wantStats, gotStats)
			}
		}
	}
}

// TestLinkedWaveAllocationFree pins the native hot path: once a k=8
// rename wave has linked every comparator it meets, a wave on the reset
// instance (Reset plus RunGroup.Run) allocates nothing.
func TestLinkedWaveAllocationFree(t *testing.T) {
	const k = 8
	rt := shmem.NewNative(11)
	sa := CompileStrongAdaptive(sortnet.BaseOEM).Instantiate(rt, tas.MakeTwoProc)
	g := rt.NewRunGroup(k)
	names := make([]uint64, k)
	body := func(p shmem.Proc) { names[p.ID()] = sa.Rename(p, uint64(p.ID())+1) }
	wave := func() {
		sa.Reset()
		g.Run(body)
	}
	for i := 0; i < 500; i++ { // warm the links and the splitter tree
		wave()
	}
	if n := testing.AllocsPerRun(1000, wave); n != 0 {
		t.Fatalf("linked k=%d rename wave allocates %.0f times per run, want 0", k, n)
	}
	if err := CheckUniqueTight(names); err != nil {
		t.Fatal(err)
	}
}

// TestLinkRaceFreshInstances races k=32 native processes to publish the
// links of a fresh instance, wave after wave: every process that finds a
// link unset computes and stores it concurrently with the others, and the
// names must still be exactly 1..k.
func TestLinkRaceFreshInstances(t *testing.T) {
	const k, waves = 32, 200
	rt := shmem.NewNative(5)
	bp := CompileStrongAdaptive(sortnet.BaseOEM)
	g := rt.NewRunGroup(k)
	names := make([]uint64, k)
	for w := 0; w < waves; w++ {
		sa := bp.Instantiate(rt, tas.MakeTwoProc)
		g.Run(func(p shmem.Proc) { names[p.ID()] = sa.Rename(p, uint64(p.ID())+1) })
		if err := CheckUniqueTight(names); err != nil {
			t.Fatalf("wave %d: %v", w, err)
		}
	}
}
