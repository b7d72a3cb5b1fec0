package phase

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/shmem"
)

// Policy selects how a Pool drives the counter's mode.
type Policy int

const (
	// Auto switches hysteretically on live contention signals (the
	// default).
	Auto Policy = iota
	// PinJoined locks the counter in joined mode (the A/B baseline leg).
	PinJoined
	// PinSplit locks the counter in split mode.
	PinSplit
)

// Options configures a Pool.
type Options struct {
	// Lanes is the number of serving lanes (rounded up to a power of two;
	// default 8, or 2×GOMAXPROCS when larger). Each lane is a dedicated
	// native proc plus its own contention counters; lane count is also the
	// counter's cell/shard count.
	Lanes int
	// Epoch is the cooperative merge period per cell (rounded up to a
	// power of two; default 1024): in split mode a lane merges its cell
	// whenever the cell's cumulative count crosses a multiple of Epoch.
	Epoch int
	// Seed derives the pool runtime's coin streams.
	Seed uint64
	// CASSpine selects the baseline CAS-word spine instead of the default
	// AAC merge-layout tree.
	CASSpine bool
	// Policy selects mode control (default Auto).
	Policy Policy
	// TickOps is the auto controller's evaluation period in per-lane
	// operations (rounded up to a power of two; default 4096).
	TickOps uint64
	// EnterSplit is the contention score — (lease retries + spine CAS
	// retries) per operation over the last tick — at or above which a
	// joined counter votes to split (default 0.05).
	EnterSplit float64
	// ExitSplit is the score at or below which a split counter votes to
	// rejoin (default 0.01; must sit below EnterSplit — the hysteresis
	// band).
	ExitSplit float64
	// Settle is how many consecutive ticks must vote the same way before
	// the mode actually switches (default 2) — the debounce half of the
	// hysteresis.
	Settle int
	// Reconcile, when positive, runs a dedicated reconciler goroutine that
	// merges every cell into the spine at this period (tightening
	// ReadSpine's staleness from "one epoch per cell" to "one tick"), and
	// drives controller evaluation on quiet pools. Close stops it.
	Reconcile time.Duration
}

func (o Options) withDefaults() Options {
	if o.Lanes <= 0 {
		o.Lanes = 8
		if g := 2 * runtime.GOMAXPROCS(0); g > o.Lanes {
			o.Lanes = g
		}
	}
	o.Lanes = ceilPow2(o.Lanes)
	if o.Epoch <= 0 {
		o.Epoch = 1024
	}
	if o.TickOps == 0 {
		o.TickOps = 4096
	}
	o.TickOps = uint64(ceilPow2(int(o.TickOps)))
	if o.EnterSplit <= 0 {
		o.EnterSplit = 0.05
	}
	if o.ExitSplit <= 0 {
		o.ExitSplit = 0.01
	}
	if o.ExitSplit >= o.EnterSplit {
		o.ExitSplit = o.EnterSplit / 4
	}
	if o.Settle <= 0 {
		o.Settle = 2
	}
	return o
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// lane is one serving slot: a dedicated proc, exclusively held for the
// duration of one operation, plus the lane's contention accounting. The
// 64-bit atomics lead the struct (32-bit platforms need them 8-aligned)
// and the padding keeps consecutive lanes two cache lines apart.
type lane struct {
	ops     atomic.Uint64 // operations completed through this lane
	retries atomic.Uint64 // failed lease CASes by contenders probing this lane
	leased  atomic.Uint32 // 1 while a goroutine holds the lane
	_       [4]byte
	proc    *shmem.NativeProc
	_       [96]byte
}

// Pool serves one shared phased counter to arbitrarily many goroutines on
// one native runtime. Unlike serve.Pool — disjoint object graphs checked
// out whole — every operation here targets the *same* counter; the lanes
// only multiplex proc contexts and collect the contention signals the auto
// controller consumes:
//
//   - lease retries: a failed lane-lease CAS means two goroutines raced
//     one lane — the checkout-path analogue of serve's freelist retry
//     gauge;
//   - spine CAS retries (CAS spine only): core.CASCounter's failed-CAS
//     counters, contention on the authoritative word itself;
//   - InFlight: lanes held right now, the live-operation gauge shaped
//     like serve.Pool.InFlight.
//
// The controller folds retries into a per-op score and switches the
// counter's mode with hysteresis (enter/exit thresholds a band apart, and
// Settle consecutive ticks to act), so a burst must persist before the
// pool splits and fade before it rejoins — no flapping at the boundary.
type Pool struct {
	rt    *shmem.Native
	c     *Counter
	spine *CASSpine // non-nil when the spine is the CAS adapter
	lanes []lane
	mask  uint64
	opts  Options

	// Controller state: guarded by the evaluating flag (one evaluator at a
	// time; losers skip — a missed tick is re-taken TickOps ops later).
	evaluating  atomic.Uint32
	lastOps     uint64
	lastRetries uint64
	streak      int

	stop chan struct{} // reconciler shutdown; nil without a reconciler
	done chan struct{}
}

// NewPool builds the serving pool and its counter.
func NewPool(opts Options) *Pool {
	opts = opts.withDefaults()
	rt := shmem.NewNative(opts.Seed)
	var c *Counter
	var spine *CASSpine
	if opts.CASSpine {
		c = NewCAS(rt, opts.Lanes, opts.Epoch)
		spine = c.Spine().(*CASSpine)
	} else {
		c = NewAAC(rt, opts.Lanes, opts.Epoch)
	}
	p := &Pool{
		rt:    rt,
		c:     c,
		spine: spine,
		lanes: make([]lane, opts.Lanes),
		mask:  uint64(opts.Lanes - 1),
		opts:  opts,
	}
	for i := range p.lanes {
		p.lanes[i].proc = rt.NewProc(i)
	}
	switch opts.Policy {
	case PinJoined:
		c.SetMode(Joined)
	case PinSplit:
		c.SetMode(Split)
	}
	if opts.Reconcile > 0 {
		p.stop = make(chan struct{})
		p.done = make(chan struct{})
		go p.reconcileLoop()
	}
	return p
}

// Counter returns the shared phased counter (tests and embedders; the
// serving surface is Inc/Read/ReadStrict).
func (p *Pool) Counter() *Counter { return p.c }

// Runtime returns the pool's native runtime.
func (p *Pool) Runtime() *shmem.Native { return p.rt }

// goroutineKey distinguishes concurrent goroutines cheaply: the address of
// a stack slot (as in serve's shard selection). It steers lane choice
// only; a collision costs one probe, never correctness.
func goroutineKey() uint64 {
	var b byte
	return uint64(uintptr(unsafe.Pointer(&b)))
}

// lease acquires a lane by hashed goroutine identity with linear probing.
// Every failed lease CAS bumps the probed lane's retry counter — that IS
// the contention signal, measured exactly where it occurs. A full sweep
// without a free lane yields the processor (every lane busy means more
// runnable goroutines than lanes).
func (p *Pool) lease() *lane {
	h := rng.Mix64(goroutineKey())
	for i := uint64(0); ; i++ {
		ln := &p.lanes[(h+i)&p.mask]
		if ln.leased.CompareAndSwap(0, 1) {
			return ln
		}
		ln.retries.Add(1)
		if i&p.mask == p.mask {
			runtime.Gosched()
		}
	}
}

func (p *Pool) release(ln *lane) { ln.leased.Store(0) }

// Inc increments the shared counter through a leased lane.
func (p *Pool) Inc() {
	ln := p.lease()
	p.c.Inc(ln.proc)
	p.finish(ln)
}

// Read returns the fast monotone-consistent value.
func (p *Pool) Read() uint64 {
	ln := p.lease()
	v := p.c.Read(ln.proc)
	p.finish(ln)
	return v
}

// ReadStrict forces a full reconciliation and returns the authoritative
// value.
func (p *Pool) ReadStrict() uint64 {
	ln := p.lease()
	v := p.c.ReadStrict(ln.proc)
	p.finish(ln)
	return v
}

// finish completes one lane operation: per-lane op accounting, a
// controller tick when this lane crosses the evaluation period, then the
// lease release.
func (p *Pool) finish(ln *lane) {
	n := ln.ops.Add(1)
	if p.opts.Policy == Auto && n&(p.opts.TickOps-1) == 0 {
		p.tick(ln.proc)
	}
	p.release(ln)
}

// tick runs one controller evaluation (single evaluator; losers skip).
// The score is contention per operation since the last tick: lease
// retries plus spine CAS retries over completed ops. Hysteresis is a
// threshold band (EnterSplit > ExitSplit) plus a Settle-tick debounce in
// both directions.
func (p *Pool) tick(proc *shmem.NativeProc) {
	if !p.evaluating.CompareAndSwap(0, 1) {
		return
	}
	defer p.evaluating.Store(0)

	var ops, retries uint64
	for i := range p.lanes {
		ops += p.lanes[i].ops.Load()
		retries += p.lanes[i].retries.Load()
	}
	if p.spine != nil {
		retries += p.spine.Retries()
	}
	dOps := ops - p.lastOps
	dRetries := retries - p.lastRetries
	if dOps == 0 {
		return
	}
	p.lastOps, p.lastRetries = ops, retries
	score := float64(dRetries) / float64(dOps)

	switch p.c.Mode() {
	case Joined:
		if score >= p.opts.EnterSplit {
			p.streak++
		} else {
			p.streak = 0
		}
		if p.streak >= p.opts.Settle {
			p.streak = 0
			p.c.SetMode(Split)
		}
	case Split:
		if score <= p.opts.ExitSplit {
			p.streak++
		} else {
			p.streak = 0
		}
		if p.streak >= p.opts.Settle {
			p.streak = 0
			p.c.SetMode(Joined)
			// Drain the cells so the spine is fresh for the joined phase
			// (correctness never needed it — reads sweep the cells — but a
			// rejoined counter should not carry split-era staleness).
			p.c.Reconcile(proc)
		}
	}
}

// reconcileLoop is the dedicated reconciler: every period it merges the
// cells (bounding ReadSpine staleness by the period) and, under Auto,
// drives a controller evaluation so a pool that went quiet still rejoins.
func (p *Pool) reconcileLoop() {
	defer close(p.done)
	rp := p.rt.NewProc(len(p.lanes)) // its own proc id: never increments, only merges
	t := time.NewTicker(p.opts.Reconcile)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			if p.c.Mode() == Split {
				p.c.Reconcile(rp)
			}
			if p.opts.Policy == Auto {
				p.tick(rp)
			}
		}
	}
}

// Close stops the dedicated reconciler, running one final reconciliation.
// A pool built without Reconcile needs no Close.
func (p *Pool) Close() {
	if p.stop == nil {
		return
	}
	close(p.stop)
	<-p.done
	rp := p.rt.NewProc(len(p.lanes))
	p.c.Reconcile(rp)
}

// InFlight returns the number of lanes held right now — the live-operation
// gauge, shaped like serve.Pool.InFlight.
func (p *Pool) InFlight() int {
	var n int
	for i := range p.lanes {
		n += int(p.lanes[i].leased.Load())
	}
	return n
}

// Stats is a point-in-time summary of the pool and its counter.
type Stats struct {
	Mode         Mode   // current phase
	Switches     uint64 // mode transitions so far
	Merges       uint64 // cell merges into the spine
	Ops          uint64 // operations served
	LeaseRetries uint64 // failed lane-lease CASes
	SpineRetries uint64 // failed spine CASes (CAS spine only)
	InFlight     int    // lanes held right now
	Lag          uint64 // unmerged counts: fast value − spine value
}

// Stats samples the pool (the Lag sample leases a lane).
func (p *Pool) Stats() Stats {
	st := Stats{Mode: p.c.Mode(), Switches: p.c.Switches(), Merges: p.c.Merges()}
	for i := range p.lanes {
		st.Ops += p.lanes[i].ops.Load()
		st.LeaseRetries += p.lanes[i].retries.Load()
		st.InFlight += int(p.lanes[i].leased.Load())
	}
	if p.spine != nil {
		st.SpineRetries = p.spine.Retries()
	}
	ln := p.lease()
	st.Lag = p.c.Lag(ln.proc)
	p.release(ln)
	return st
}
