package shmem

import "sync"

// Region is a Mem that hands out registers from chunked arenas of its
// parent runtime and restores every register it ever handed out in one
// sweep per chunk. It is the register half of the two-phase object model
// for lazily growing object graphs: a renamer, counter or test-and-set
// tree allocates all of its registers from the one region owned by its
// top-level instance, and the instance's Reset is a Region.Reset plus
// whatever non-register bookkeeping it keeps (uid streams).
// Reset cost is then a memory clear over the registers the graph ever
// touched, instead of a walk over the graph's objects with one interface
// dispatch and one atomic store per register.
//
// Chunks grow geometrically (8 registers, doubling up to 256), so a graph
// that stays small (a solo operation touches a handful of registers) keeps
// a small footprint, and a graph that grows large pays one allocation per
// 256 registers. A register allocated with a nonzero initial value is
// recorded and rewritten after the sweep, so Reset restores exactly the
// just-allocated state.
//
// A region over a Serial parent is itself Serial (IsSerial), so lazy
// tables built over it keep their unsynchronized path; over a concurrent
// parent, allocation serializes on a mutex (allocation is bookkeeping
// outside the step-counted model, and objects are created once per key).
//
// Every object built on one region shares its Reset: resetting any of
// them restores all of them. Objects that must reset independently need
// regions of their own.
type Region struct {
	parent Mem
	serial bool

	mu     sync.Mutex // guards allocation on concurrent parents
	chunks []RegArena // every arena handed out from, in allocation order
	cur    int        // index in chunks of the chunk registers are carved from; -1 = none
	off    int        // next free register in chunks[cur]
	next   int        // size of the next chunk
	inits  []regionInit
}

// regionInit records a register allocated with a nonzero initial value.
type regionInit struct {
	r CASReg
	v uint64
}

// Chunk sizes: the first chunk holds regionMinChunk registers, each
// further one twice the previous, up to regionMaxChunk.
const (
	regionMinChunk = 8
	regionMaxChunk = 256
)

var _ ArenaMem = (*Region)(nil)

// RegionOf returns the region an object built on mem allocates from: mem
// itself when it is already a Region (the object joins the graph that
// region belongs to), and a fresh region over mem otherwise (the object is
// the top-level instance of a new graph).
func RegionOf(mem Mem) *Region {
	if r, ok := mem.(*Region); ok {
		return r
	}
	return &Region{parent: mem, serial: IsSerial(mem), cur: -1, next: regionMinChunk}
}

// NewReg allocates a register from the region.
func (r *Region) NewReg(init uint64) Reg { return r.NewCASReg(init) }

// NewCASReg allocates a register with compare-and-swap from the region.
func (r *Region) NewCASReg(init uint64) CASReg {
	if !r.serial {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	if r.cur < 0 || r.off == r.chunks[r.cur].Len() {
		r.cur = len(r.chunks)
		r.chunks = append(r.chunks, NewRegs(r.parent, r.next))
		r.off = 0
		if r.next < regionMaxChunk {
			r.next *= 2
		}
	}
	reg := r.chunks[r.cur].CASReg(r.off)
	r.off++
	if init != 0 {
		Restore(reg, init)
		r.inits = append(r.inits, regionInit{reg, init})
	}
	return reg
}

// NewRegs allocates n zero-initialized registers as one dedicated arena of
// the region (bulk layouts such as counter leaves keep their contiguous
// indexing), swept by Reset with the rest.
func (r *Region) NewRegs(n int) RegArena {
	a := NewRegs(r.parent, n)
	if !r.serial {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	r.chunks = append(r.chunks, a)
	return a
}

// Reset restores every register the region has handed out to its initial
// value: one sweep per chunk, then the recorded nonzero initial values.
// Like every Reset it must only run between executions, with no process
// running against any object built on the region.
func (r *Region) Reset() {
	for _, a := range r.chunks {
		a.Reset()
	}
	for _, in := range r.inits {
		Restore(in.r, in.v)
	}
}

// Each calls fn for every register handed out so far, in allocation
// order, with the initial value Reset restores it to. It is a probe for
// tests and space accounting, outside the step-counted model; between
// executions only.
func (r *Region) Each(fn func(reg CASReg, init uint64)) {
	init := make(map[CASReg]uint64, len(r.inits))
	for _, in := range r.inits {
		init[in.r] = in.v
	}
	for c, a := range r.chunks {
		n := a.Len()
		if c == r.cur {
			n = r.off
		}
		for i := 0; i < n; i++ {
			reg := a.CASReg(i)
			fn(reg, init[reg])
		}
	}
}
