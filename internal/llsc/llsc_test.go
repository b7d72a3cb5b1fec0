package llsc

import (
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
)

func TestLLSCBasics(t *testing.T) {
	rt := sim.New(1, sim.NewRoundRobin())
	r := New(rt, 5)
	rt.Run(1, func(p shmem.Proc) {
		v, tok := r.LL(p)
		if v != 5 {
			t.Errorf("LL = %d, want 5", v)
		}
		if !r.Validate(p, tok) {
			t.Error("fresh link invalid")
		}
		if !r.SC(p, tok, 9) {
			t.Error("uncontended SC failed")
		}
		if v, _ := r.LL(p); v != 9 {
			t.Errorf("after SC, LL = %d", v)
		}
		if r.SC(p, tok, 11) {
			t.Error("stale SC succeeded")
		}
		if r.Validate(p, tok) {
			t.Error("stale link validated")
		}
	})
}

func TestSCFailsAfterInterleavedMove(t *testing.T) {
	// Scripted schedule: p0 LLs, p1 moves, p0's SC must fail — even though
	// p1 may have restored the same value (no ABA).
	rt := sim.New(1, sim.NewReplay([]int{0, 1, 1, 0}))
	r := New(rt, 3)
	var scOK bool
	rt.Run(2, func(p shmem.Proc) {
		if p.ID() == 0 {
			_, tok := r.LL(p)
			scOK = r.SC(p, tok, 7)
		} else {
			r.Move(p, 3) // same value, new version
		}
	})
	if scOK {
		t.Fatal("SC succeeded across an interleaved move with identical value (ABA)")
	}
}

func TestMoveIsVisible(t *testing.T) {
	rt := sim.New(2, sim.NewSequential())
	r := NewCompiledReg(rt, 0)
	var got uint64
	rt.Run(2, func(p shmem.Proc) {
		if p.ID() == 0 {
			r.Write(p, 42)
		} else {
			got = r.Read(p)
		}
	})
	if got != 42 {
		t.Fatalf("read %d after move, want 42", got)
	}
}

func TestCompiledTASOneWinner(t *testing.T) {
	advs := map[string]func(seed uint64) sim.Adversary{
		"roundrobin": func(uint64) sim.Adversary { return sim.NewRoundRobin() },
		"random":     func(s uint64) sim.Adversary { return sim.NewRandom(s) },
		"sequential": func(uint64) sim.Adversary { return sim.NewSequential() },
	}
	for name, mk := range advs {
		for seed := uint64(0); seed < 20; seed++ {
			rt := sim.New(seed, mk(seed))
			ts := NewCompiledTAS(rt)
			const k = 6
			wins := 0
			rt.Run(k, func(p shmem.Proc) {
				if ts.TestAndSet(p) {
					wins++ // serialized by the simulator
				}
			})
			if wins != 1 {
				t.Fatalf("adv=%s seed=%d: %d winners", name, seed, wins)
			}
		}
	}
}

func TestCompiledTASLoserEvidence(t *testing.T) {
	// A compiled TAS loser has always observed a winner: v != 0 on LL or a
	// failed SC (someone else's SC landed). Solo contender must win.
	rt := sim.New(1, sim.NewRoundRobin())
	ts := NewCompiledTAS(rt)
	var won bool
	st := rt.Run(1, func(p shmem.Proc) { won = ts.TestAndSet(p) })
	if !won {
		t.Fatal("solo compiled TAS lost")
	}
	if st.PerProc[0].Steps() != 2 {
		t.Fatalf("solo compiled TAS cost %d steps, want 2 (LL+SC)", st.PerProc[0].Steps())
	}
}

func TestSwap(t *testing.T) {
	rt := sim.New(4, sim.NewRoundRobin())
	r := New(rt, 3)
	var prevs []uint64
	rt.Run(1, func(p shmem.Proc) {
		prevs = append(prevs, r.Swap(p, 8))
		prevs = append(prevs, r.Swap(p, 1))
		v, _ := r.LL(p)
		prevs = append(prevs, v)
	})
	want := []uint64{3, 8, 1}
	for i := range want {
		if prevs[i] != want[i] {
			t.Fatalf("swap chain %v, want %v", prevs, want)
		}
	}
}

func TestSwapBreaksLinks(t *testing.T) {
	// p0 LLs; p1's swap takes two steps (read + CAS); then p0's SC.
	rt := sim.New(5, sim.NewReplay([]int{0, 1, 1, 0}))
	r := New(rt, 0)
	var scOK bool
	rt.Run(2, func(p shmem.Proc) {
		if p.ID() == 0 {
			_, tok := r.LL(p)
			scOK = r.SC(p, tok, 2)
		} else {
			r.Swap(p, 0) // same value, must still break the link
		}
	})
	if scOK {
		t.Fatal("SC survived an interleaved swap")
	}
}

func TestValueOverflowPanics(t *testing.T) {
	rt := sim.New(1, sim.NewRoundRobin())
	r := New(rt, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt.Run(1, func(p shmem.Proc) { r.Move(p, 1<<valueBits) })
}

// TestRegionRestoresNonzeroInit pins the region's initial-value record: an
// LL/SC register allocated with a nonzero value from a region reads that
// value, with a fresh version stamp, after the region's Reset — on both
// runtimes.
func TestRegionRestoresNonzeroInit(t *testing.T) {
	for _, rt := range []shmem.Runtime{sim.New(1, sim.NewRoundRobin()), shmem.NewNative(1)} {
		reg := shmem.RegionOf(rt)
		zero := New(reg, 0)
		r := New(reg, 5)
		var fresh uint64
		rt.Run(1, func(p shmem.Proc) {
			_, fresh = r.LL(p)
			r.Move(p, 9)
			zero.Move(p, 3)
		})
		reg.Reset()
		if s, ok := rt.(*sim.Runtime); ok {
			s.Reset(1, sim.NewRoundRobin())
		}
		rt.Run(1, func(p shmem.Proc) {
			v, tok := r.LL(p)
			if v != 5 || tok != fresh {
				t.Errorf("%T: after Reset LL = (%d, %#x), want (5, %#x)", rt, v, tok, fresh)
			}
			if v, _ := zero.LL(p); v != 0 {
				t.Errorf("%T: zero-initialized register after Reset = %d", rt, v)
			}
		})
	}
}
