package splitter

import (
	"reflect"
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
)

// TestRegionReuseBitIdentical pins the reuse contract of the region-backed
// tree and collect objects: an object dirtied by an execution and reset
// (one sweep of its region) replays every (seed, adversary) point with the
// Stats and outputs of a fresh construction.
func TestRegionReuseBitIdentical(t *testing.T) {
	const k = 10
	type run func(rt *sim.Runtime) (*shmem.Stats, []uint64)
	build := map[string]func(mem shmem.Mem) (run, func()){
		"tree": func(mem shmem.Mem) (run, func()) {
			tr := NewTree(mem)
			return func(rt *sim.Runtime) (*shmem.Stats, []uint64) {
				out := make([]uint64, k)
				st := rt.Run(k, func(p shmem.Proc) { out[p.ID()] = tr.Acquire(p, uint64(p.ID())+1) })
				return st, out
			}, tr.Reset
		},
		"collect": func(mem shmem.Mem) (run, func()) {
			c := NewCollect(mem)
			return func(rt *sim.Runtime) (*shmem.Stats, []uint64) {
				out := make([]uint64, k)
				st := rt.Run(k, func(p shmem.Proc) {
					c.Join(p, uint64(p.ID())+1).Store(p, uint64(p.ID())+100)
					out[p.ID()] = uint64(len(c.CollectAll(p)))
				})
				return st, out
			}, c.Reset
		},
	}
	for name, mk := range build {
		rt := sim.New(999, sim.NewRandom(999))
		reused, reset := mk(rt)
		reused(rt)
		for seed := uint64(0); seed < 4; seed++ {
			for adv, a := range adversaries(seed) {
				fresh := sim.New(seed, a)
				fr, _ := mk(fresh)
				wantSt, want := fr(fresh)

				reset()
				rt.Reset(seed, adversaries(seed)[adv])
				gotSt, got := reused(rt)
				if !reflect.DeepEqual(wantSt, gotSt) || !reflect.DeepEqual(want, got) {
					t.Errorf("%s %s seed %d: reset diverged from fresh\nfresh: %v %+v\nreset: %v %+v", name, adv, seed, want, wantSt, got, gotSt)
				}
			}
		}
	}
}
