package main

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/shmem"
	"repro/internal/sortnet"
	"repro/internal/tas"
)

// maxK is the widest wave.
const maxK = 32

// waveKs is the contention cycle of adaptive-waves.
var waveKs = [...]int{2, 4, 8, 16, 32}

// waveOpsPerReq: requests alternate renaming waves (k ops) and counting
// waves (2k ops: Inc and Read per process) over the k cycle.
const waveOpsPerReq = float64(2+4+8+16+32) * 3 / float64(2*len(waveKs))

// warmWaves is how many waves each generator runs while warming up.
const warmWaves = 1000

// kIndex maps a wave width in waveKs to its accumulator slot.
func kIndex(k int) int { return bits.TrailingZeros(uint(k)) - 1 }

// newPools builds the renaming and counting pools the served ops use
// (the load package's recipe: strong adaptive renaming on the cached
// OEM blueprint and monotone counters, both on hardware test-and-set).
func newPools(seed uint64) (*serve.Pool[*core.StrongAdaptive], *serve.Pool[*core.MonotoneCounter]) {
	bp := core.CompileStrongAdaptive(sortnet.BaseOEM)
	ren := serve.New(serve.Options{Seed: seed}, func(mem shmem.Mem) *core.StrongAdaptive {
		return bp.Instantiate(mem, tas.MakeUnit)
	})
	cnt := serve.New(serve.Options{Seed: seed + 1}, func(mem shmem.Mem) *core.MonotoneCounter {
		return core.NewMonotoneCounter(mem, tas.MakeUnit)
	})
	return ren, cnt
}

// waves is the adaptive-waves system: two pools, and one wave in flight
// per generator.
type waves struct {
	seed uint64
	ren  *serve.Pool[*core.StrongAdaptive]
	cnt  *serve.Pool[*core.MonotoneCounter]
	gs   []*waveGen
}

// waveGen is one generator: the bodies its waves' processes run, the
// per-process results they write, and the per-k accounting.
type waveGen struct {
	*gen
	sa                    *core.StrongAdaptive  // the renamer of the running wave
	mc                    *core.MonotoneCounter // the counter of the running wave
	traced                bool                  // set before each Run, read by its bodies
	renameBody, countBody func(shmem.Proc)

	names, incs, reads, incSteps [maxK]uint64
	pstart, pend                 [maxK]int64

	acc waveAcc
}

// waveAcc is the per-layer accounting of adaptive-waves, one slot per k:
// step counts from Stats.PerProc and the procs' own step counters, and
// the traced timings.
type waveAcc struct {
	renSteps, renProcs, renTAS, renComps [len(waveKs)]uint64
	incSteps, incProcs                   [len(waveKs)]uint64
	procNS, execOverNS                   [len(waveKs)]load.Hist
	putK32NS                             load.Hist
}

func (a *waveAcc) merge(o *waveAcc) {
	for ki := range waveKs {
		a.renSteps[ki] += o.renSteps[ki]
		a.renProcs[ki] += o.renProcs[ki]
		a.renTAS[ki] += o.renTAS[ki]
		a.renComps[ki] += o.renComps[ki]
		a.incSteps[ki] += o.incSteps[ki]
		a.incProcs[ki] += o.incProcs[ki]
		a.procNS[ki].Merge(&o.procNS[ki])
		a.execOverNS[ki].Merge(&o.execOverNS[ki])
	}
	a.putK32NS.Merge(&o.putK32NS)
}

// stepper is the native proc's own step counter.
type stepper interface{ StepsTaken() uint64 }

func setupWaves(seed uint64, gens []*gen) (system, error) {
	w := &waves{seed: seed}
	w.ren, w.cnt = newPools(seed)
	for _, b := range gens {
		g := &waveGen{gen: b}
		g.renameBody = func(p shmem.Proc) {
			id := p.ID()
			if g.traced {
				g.pstart[id] = now()
			}
			g.names[id] = g.sa.Rename(p, uint64(id)+1)
			if g.traced {
				g.pend[id] = now()
			}
		}
		g.countBody = func(p shmem.Proc) {
			id := p.ID()
			if g.traced {
				g.pstart[id] = now()
			}
			g.incs[id] = g.mc.Inc(p)
			if s, ok := p.(stepper); ok {
				g.incSteps[id] = s.StepsTaken()
			}
			g.reads[id] = g.mc.Read(p)
			if g.traced {
				g.pend[id] = now()
			}
		}
		w.gs = append(w.gs, g)
	}
	// Warm up on request indices past any run's budget, so warm-up never
	// replays the measured inputs.
	runWarm(len(gens), func(gi int) {
		first := uint64(1)<<62 + uint64(gi)*warmWaves
		for i := uint64(0); i < warmWaves; i++ {
			w.request(gi, first+i, false)
		}
	})
	for _, g := range w.gs {
		g.acc = waveAcc{}
	}
	return w, nil
}

func (w *waves) setTrace(bool) {}

func (w *waves) pools() serve.Stats { return sumPools(w.ren.Stats(), w.cnt.Stats()) }

// waveK returns the width of wave i. Each block of ten requests runs
// every k of the cycle once as a renaming wave and once as a counting
// wave, in an order drawn from (seed, block): generators that claim
// blocks in lockstep then pair widths at random instead of locking into
// one pairing for a whole run.
func (w *waves) waveK(i uint64) int {
	ks := waveKs
	r := rng.Derived(w.seed, i/(2*uint64(len(ks))))
	for j := len(ks) - 1; j > 0; j-- {
		m := r.Intn(j + 1)
		ks[j], ks[m] = ks[m], ks[j]
	}
	return ks[i%(2*uint64(len(ks)))/2]
}

// request i is a renaming wave when i is even and a counting wave when i
// is odd. Generators claim odd-sized chunks of requests, so with one wave
// per generator in flight, renaming waves run beside counting waves.
func (w *waves) request(gi int, i uint64, traced bool) {
	g := w.gs[gi]
	k := w.waveK(i)
	g.traced = traced
	sample := traced && i%spanEvery == 0 && g.log.room(k+5)
	var t [5]int64 // get, run, check, put, end
	var err error
	t[0] = now()
	if i%2 == 0 {
		in := w.ren.Get()
		t[1] = now()
		g.sa = in.Obj
		st := in.Exec(k).Run(g.renameBody)
		t[2] = now()
		g.accRename(k, st)
		t[3] = now()
		in.Put()
		t[4] = now()
		err = checkRenameWave(g.names[:k])
	} else {
		in := w.cnt.Get()
		t[1] = now()
		g.mc = in.Obj
		in.Exec(k).Run(g.countBody)
		t[2] = now()
		q := in.Obj.Read(in.Proc())
		g.accCount(k)
		t[3] = now()
		in.Put()
		t[4] = now()
		err = checkCountWave(g.incs[:k], g.reads[:k], q)
	}
	g.violation(err)
	g.lat.add(t[2] - t[0] + t[4] - t[3])
	g.ops += uint64(k)
	if i%2 == 1 {
		g.ops += uint64(k)
	}
	if !traced {
		return
	}
	ki := kIndex(k)
	var slowest int64
	for p := 0; p < k; p++ {
		d := g.pend[p] - g.pstart[p]
		g.acc.procNS[ki].Record(uint64(d))
		slowest = max(slowest, d)
	}
	g.acc.execOverNS[ki].Record(uint64(max(t[2]-t[1]-slowest, 0)))
	if k == maxK {
		g.acc.putK32NS.Record(uint64(t[4] - t[3]))
	}
	if sample {
		l := &g.log
		root, run := l.id(), l.id()
		l.add(i+1, root, 0, kindWave, t[0], t[4])
		l.add(i+1, l.id(), root, kindGet, t[0], t[1])
		l.add(i+1, run, root, kindExecRun, t[1], t[2])
		for p := 0; p < k; p++ {
			l.add(i+1, l.id(), run, kindProc, g.pstart[p], g.pend[p])
		}
		l.add(i+1, l.id(), root, kindCheck, t[2], t[3])
		l.add(i+1, l.id(), root, kindPut, t[3], t[4])
	}
}

// accRename folds a renaming wave's per-process accounting: steps, TAS
// entries (top-level and two-process) and comparators traversed.
func (g *waveGen) accRename(k int, st *shmem.Stats) {
	a, ki := &g.acc, kIndex(k)
	for _, c := range st.PerProc {
		a.renSteps[ki] += c.Steps()
		a.renTAS[ki] += c.Events[shmem.EvTASEnter] + c.Events[shmem.EvTAS2Enter]
		a.renComps[ki] += c.Events[shmem.EvComparator]
	}
	a.renProcs[ki] += uint64(k)
}

// accCount folds a counting wave's Inc step counts.
func (g *waveGen) accCount(k int) {
	a, ki := &g.acc, kIndex(k)
	for p := 0; p < k; p++ {
		a.incSteps[ki] += g.incSteps[p]
	}
	a.incProcs[ki] += uint64(k)
}

func (w *waves) perLayer(m map[string]float64, _ *phaseStats) {
	var a waveAcc
	for _, g := range w.gs {
		a.merge(&g.acc)
	}
	perProc := func(sum, procs [len(waveKs)]uint64, k int) float64 {
		return ratio(float64(sum[kIndex(k)]), float64(procs[kIndex(k)]))
	}
	m["core.rename_steps.k2"] = perProc(a.renSteps, a.renProcs, 2)
	m["core.rename_steps.k8"] = perProc(a.renSteps, a.renProcs, 8)
	m["core.rename_steps.k32"] = perProc(a.renSteps, a.renProcs, 32)
	m["core.inc_steps.k32"] = perProc(a.incSteps, a.incProcs, 32)
	m["core.tas_per_name.k32"] = perProc(a.renTAS, a.renProcs, 32)
	m["core.comparators_per_name.k32"] = perProc(a.renComps, a.renProcs, 32)
	for _, k := range []int{2, 32} {
		ki := kIndex(k)
		m[fmt.Sprintf("core.proc_us.k%d", k)] = meanTiming("adaptive-waves", "core.proc_us", k, &a.procNS[ki]) / 1e3
		m[fmt.Sprintf("exec.overhead_us.k%d", k)] = meanTiming("adaptive-waves", "exec.overhead_us", k, &a.execOverNS[ki]) / 1e3
	}
	m["serve.put_us.k32"] = meanTiming("adaptive-waves", "serve.put_us", maxK, &a.putK32NS) / 1e3
}

func (w *waves) programSpans() []obs.Span { return nil }

func (w *waves) close() {}
