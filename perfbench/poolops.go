package main

import (
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/shmem"
)

// poolTargets is the pool-ops key space, as in the load catalog's skew
// scenario: Zipf(0.99) over 64 targets.
const (
	poolTargets = 64
	zipfTheta   = 0.99
	warmPoolOps = 100_000 // per generator
)

// poolOps is the pool-ops system: solo keyed ops on the two pools.
type poolOps struct {
	seed uint64
	ren  *serve.Pool[*core.StrongAdaptive]
	cnt  *serve.Pool[*core.MonotoneCounter]
	z    *zipf
	gs   []*poolGen
}

// poolGen is one generator. The op bodies are bound once, so a DoKeyed
// call allocates no closure.
type poolGen struct {
	*gen
	v              uint64
	rename         func(shmem.Proc, *core.StrongAdaptive)
	inc, read      func(shmem.Proc, *core.MonotoneCounter)
	get, call, put load.Hist // traced layer timings
}

func setupPoolOps(seed uint64, gens []*gen) (system, error) {
	s := &poolOps{seed: seed, z: newZipf(poolTargets, zipfTheta)}
	s.ren, s.cnt = newPools(seed)
	for _, b := range gens {
		g := &poolGen{gen: b}
		g.rename = func(p shmem.Proc, sa *core.StrongAdaptive) { g.v = sa.Rename(p, 1) }
		g.inc = func(p shmem.Proc, c *core.MonotoneCounter) { g.v = c.Inc(p) }
		g.read = func(p shmem.Proc, c *core.MonotoneCounter) { g.v = c.Read(p) }
		s.gs = append(s.gs, g)
	}
	// Warm up on request indices past any run's budget, so warm-up never
	// replays the measured inputs.
	runWarm(len(gens), func(gi int) {
		first := uint64(1)<<62 + uint64(gi)*warmPoolOps
		for i := uint64(0); i < warmPoolOps; i++ {
			s.request(gi, first+i, false)
		}
	})
	return s, nil
}

func (s *poolOps) setTrace(bool) {}

func (s *poolOps) pools() serve.Stats { return sumPools(s.ren.Stats(), s.cnt.Stats()) }

// request i is one op whose kind and key derive from (seed, i). Untraced
// it is one DoKeyed call; traced, the same checkout, call and recycle are
// made and timed one by one.
func (s *poolOps) request(gi int, i uint64, traced bool) {
	g := s.gs[gi]
	r := rng.Derived(s.seed, i)
	kind := pickOp(&r)
	key := s.z.draw(&r)
	if !traced {
		t0 := now()
		switch kind {
		case opRename:
			s.ren.DoKeyed(key, g.rename)
		case opInc:
			s.cnt.DoKeyed(key, g.inc)
		default:
			s.cnt.DoKeyed(key, g.read)
		}
		g.lat.add(now() - t0)
	} else {
		var t [4]int64
		if kind == opRename {
			t[0] = now()
			in := s.ren.GetKeyed(key)
			t[1] = now()
			g.v = in.Obj.Rename(in.Proc(), 1)
			t[2] = now()
			in.Put()
			t[3] = now()
		} else {
			t[0] = now()
			in := s.cnt.GetKeyed(key)
			t[1] = now()
			if kind == opInc {
				g.v = in.Obj.Inc(in.Proc())
			} else {
				g.v = in.Obj.Read(in.Proc())
			}
			t[2] = now()
			in.Put()
			t[3] = now()
		}
		g.lat.add(t[3] - t[0])
		g.get.Record(uint64(t[1] - t[0]))
		g.call.Record(uint64(t[2] - t[1]))
		g.put.Record(uint64(t[3] - t[2]))
		if i%spanEvery == 0 && g.log.room(4) {
			l := &g.log
			root := l.id()
			l.add(i+1, root, 0, kindOp, t[0], t[3])
			l.add(i+1, l.id(), root, kindGet, t[0], t[1])
			l.add(i+1, l.id(), root, kindCall, t[1], t[2])
			l.add(i+1, l.id(), root, kindPut, t[2], t[3])
		}
	}
	g.violation(checkSolo(kind, g.v))
	g.ops++
}

func (s *poolOps) perLayer(m map[string]float64, _ *phaseStats) {
	var get, call, put load.Hist
	for _, g := range s.gs {
		get.Merge(&g.get)
		call.Merge(&g.call)
		put.Merge(&g.put)
	}
	m["serve.get_ns"] = meanTiming("pool-ops", "serve.get_ns", 0, &get)
	m["core.op_ns"] = meanTiming("pool-ops", "core.op_ns", 0, &call)
	m["serve.put_ns"] = meanTiming("pool-ops", "serve.put_ns", 0, &put)
}

func (s *poolOps) programSpans() []obs.Span { return nil }

func (s *poolOps) close() {}
