package tas

import (
	"reflect"
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
)

// ratRaceBody runs k contenders through one RatRace and asserts a unique
// winner (the simulator serializes the wins counter).
func ratRaceBody(rr *RatRace, wins *int) func(p shmem.Proc) {
	return func(p shmem.Proc) {
		if rr.TestAndSet(p, uint64(p.ID())+1) {
			*wins++
		}
	}
}

// TestRatRaceReuseBitIdentical pins the reuse contract of the region-backed
// RatRace: an object dirtied by an execution and reset (one sweep of its
// region) instead of reallocated yields bit-identical Stats per (seed,
// adversary) versus a fresh object, with and without the fast path.
func TestRatRaceReuseBitIdentical(t *testing.T) {
	const k = 12
	for _, fast := range []bool{false, true} {
		build := func(mem shmem.Mem) *RatRace {
			if fast {
				return NewRatRaceWithFastPath(mem, MakeTwoProc)
			}
			return NewRatRace(mem, MakeTwoProc)
		}
		// One runtime + RatRace, dirtied by a warmup execution under an
		// unrelated seed.
		rt := sim.New(1000, sim.NewRandom(1000))
		rr := build(rt)
		rwins := 0
		rt.Run(k, ratRaceBody(rr, &rwins))

		for seed := uint64(0); seed < 6; seed++ {
			fresh := sim.New(seed, sim.NewRandom(seed))
			fwins := 0
			want := fresh.Run(k, ratRaceBody(build(fresh), &fwins))

			rr.Reset()
			rt.Reset(seed, sim.NewRandom(seed))
			rwins = 0
			got := rt.Run(k, ratRaceBody(rr, &rwins))

			if !reflect.DeepEqual(want, got) {
				t.Errorf("fast=%v seed %d: reset diverged from fresh construction\nfresh: %+v\nreuse: %+v", fast, seed, want, got)
			}
			if fwins != 1 || rwins != 1 {
				t.Errorf("fast=%v seed %d: want exactly one winner, got fresh=%d reuse=%d", fast, seed, fwins, rwins)
			}
		}
	}
}

// TestRegionResetRestoresTwoProc checks that one Region.Reset restores
// every two-process TAS a maker built on the region, across several
// chunks, on both runtime flavors.
func TestRegionResetRestoresTwoProc(t *testing.T) {
	for _, serial := range []bool{true, false} {
		var mem shmem.Mem
		var run func(body func(p shmem.Proc))
		if serial {
			rt := sim.New(7, sim.NewSequential())
			mem = rt
			run = func(body func(p shmem.Proc)) {
				rt.Run(2, body)
				rt.Reset(7, sim.NewSequential())
			}
		} else {
			rt := shmem.NewNative(7)
			mem = rt
			run = func(body func(p shmem.Proc)) { rt.Run(2, body) }
		}
		reg := shmem.RegionOf(mem)
		// 100 objects × 3 registers spans several geometric chunks.
		objs := make([]Sided, 100)
		for i := range objs {
			objs[i] = MakeTwoProc(reg)
		}
		// Decide every object: side 0 and side 1 each enter once.
		run(func(p shmem.Proc) {
			for _, o := range objs {
				o.TestAndSetSide(p, p.ID())
			}
		})
		reg.Reset()
		// After the reset each object must be unentered again: a solo
		// side-0 caller wins every one.
		run(func(p shmem.Proc) {
			if p.ID() != 0 {
				return
			}
			for i, o := range objs {
				if !o.TestAndSetSide(p, 0) {
					t.Errorf("serial=%v: object %d not reset: solo contender lost", serial, i)
					return
				}
			}
		})
	}
}
