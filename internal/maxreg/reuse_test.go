package maxreg

import (
	"reflect"
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
)

// TestRegionReuseBitIdentical pins the reuse contract of the region-backed
// max registers and the AAC counter: an object dirtied by an execution and
// reset (one sweep of its region, no recursive walk) replays every seed
// with the Stats and reads of a fresh construction.
func TestRegionReuseBitIdentical(t *testing.T) {
	const k = 6
	type obj interface {
		shmem.Resettable
		body(p shmem.Proc) uint64
	}
	build := map[string]func(mem shmem.Mem) obj{
		"bounded":   func(mem shmem.Mem) obj { return maxBody{NewBounded(mem, 64)} },
		"unbounded": func(mem shmem.Mem) obj { return maxBody{NewUnbounded(mem)} },
		"aac":       func(mem shmem.Mem) obj { return aacBody{NewAACCounter(mem, k)} },
		"aac-merge": func(mem shmem.Mem) obj { return aacBody{NewAACCounterWithMerge(mem, k, 2)} },
	}
	for name, mk := range build {
		run := func(rt *sim.Runtime, o obj) (*shmem.Stats, []uint64) {
			out := make([]uint64, k)
			st := rt.Run(k, func(p shmem.Proc) { out[p.ID()] = o.body(p) })
			return st, out
		}
		rt := sim.New(999, sim.NewRandom(999))
		reused := mk(rt)
		run(rt, reused)
		for seed := uint64(0); seed < 6; seed++ {
			fresh := sim.New(seed, sim.NewRandom(seed))
			wantSt, want := run(fresh, mk(fresh))

			reused.Reset()
			rt.Reset(seed, sim.NewRandom(seed))
			gotSt, got := run(rt, reused)
			if !reflect.DeepEqual(wantSt, gotSt) || !reflect.DeepEqual(want, got) {
				t.Errorf("%s seed %d: reset diverged from fresh\nfresh: %v %+v\nreset: %v %+v", name, seed, want, wantSt, got, gotSt)
			}
		}
	}
}

type resettableMax interface {
	MaxReg
	Reset()
}

type maxBody struct{ resettableMax }

func (m maxBody) body(p shmem.Proc) uint64 {
	m.WriteMax(p, uint64(7*p.ID()+3))
	return m.ReadMax(p)
}

type aacBody struct{ *AACCounter }

func (c aacBody) body(p shmem.Proc) uint64 {
	c.Inc(p)
	if c.MergeSlots() > 0 {
		c.Merge(p, p.ID()%c.MergeSlots(), uint64(p.ID()+1))
	}
	return c.Read(p)
}
