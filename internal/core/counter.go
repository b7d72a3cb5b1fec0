package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/maxreg"
	"repro/internal/shmem"
	"repro/internal/sortnet"
	"repro/internal/tas"
)

// UIDSource hands out globally unique nonzero invocation ids: the high word
// is the process id, the low word a per-process sequence number. It is
// bookkeeping shared with no one — each process touches only its own
// counter — so the hot path is lock-free: a copy-on-write slice of
// cache-line-padded per-process slots, published through an atomic pointer.
// Only slot-table growth takes the mutex. (The previous map-behind-a-mutex
// serialized every native Inc across all processes.)
type UIDSource struct {
	mu    sync.Mutex
	slots atomic.Pointer[[]*uidSlot]
}

// uidSlot is one process's sequence counter in its own cache line: adjacent
// processes bump their sequences on every operation, and sharing lines
// would put false sharing right back on the hot path.
type uidSlot struct {
	seq uint64
	_   [56]byte
}

// Next returns a fresh uid for an invocation by p. Only p's own goroutine
// touches p's slot, so the increment needs no atomics.
func (u *UIDSource) Next(p shmem.Proc) uint64 {
	id := p.ID()
	arr := u.slots.Load()
	if arr == nil || id >= len(*arr) {
		arr = u.grow(id)
	}
	s := (*arr)[id]
	s.seq++
	return uint64(id)<<32 | s.seq
}

// grow extends the slot table to cover id (copy-on-write; slot identity is
// stable across growth, so concurrent readers of the old slice still bump
// the same counters).
func (u *UIDSource) grow(id int) *[]*uidSlot {
	u.mu.Lock()
	defer u.mu.Unlock()
	var cur []*uidSlot
	if arr := u.slots.Load(); arr != nil {
		cur = *arr
	}
	if id < len(cur) {
		return u.slots.Load()
	}
	next := make([]*uidSlot, id+1)
	copy(next, cur)
	for i := len(cur); i <= id; i++ {
		next[i] = &uidSlot{}
	}
	u.slots.Store(&next)
	return &next
}

// Reset rewinds every per-process sequence, so a reused object hands out
// the same uid stream as a fresh one (part of the bit-identical reuse
// contract). Between executions only.
func (u *UIDSource) Reset() {
	arr := u.slots.Load()
	if arr == nil {
		return
	}
	for _, s := range *arr {
		s.seq = 0
	}
}

// MonotoneCounter is the Section 8.1 counter: increment acquires a fresh
// name from the strong adaptive renaming object and writes it to an
// unbounded max register; read returns the max register's value.
//
// Lemma 4: the counter is monotone-consistent — reads are totally ordered
// consistently with real time and return values between the number of
// completed and the number of started increments — with expected step
// complexity O(log v) per operation, v the number of increments started.
// It is NOT linearizable (the paper exhibits a three-process
// counterexample, reproduced in this package's tests), which is exactly
// the price paid for shaving the log factor off the counter of [17].
type MonotoneCounter struct {
	reg  *shmem.Region // the renamer's and max register's; nil when injected
	ren  Renamer
	max  maxreg.MaxReg
	uids UIDSource
}

// NewMonotoneCounter builds the counter from a fresh strong adaptive
// renaming instance and a fresh unbounded max register, both allocated
// from one region over mem.
func NewMonotoneCounter(mem shmem.Mem, mk tas.SidedMaker) *MonotoneCounter {
	return CompileStrongAdaptive(sortnet.BaseOEM).InstantiateCounter(mem, mk)
}

// NewMonotoneCounterWith builds the counter over an explicit renamer and
// max register (tests inject instrumented ones).
func NewMonotoneCounterWith(ren Renamer, max maxreg.MaxReg) *MonotoneCounter {
	return &MonotoneCounter{ren: ren, max: max}
}

// Reset restores the counter to zero: the renamer, the max register, and
// the uid streams all rewind, keeping the allocated graphs. A counter
// built by NewMonotoneCounter sweeps its one region; injected parts are
// reset through their own Reset and must be resettable (the standard ones
// are). Between executions only.
func (c *MonotoneCounter) Reset() {
	if c.reg != nil {
		c.reg.Reset()
	} else {
		c.ren.(shmem.Resettable).Reset()
		c.max.(shmem.Resettable).Reset()
	}
	c.uids.Reset()
}

// Region returns the region the counter's renamer and max register share,
// or nil when they were injected (a probe for tests).
func (c *MonotoneCounter) Region() *shmem.Region { return c.reg }

// Inc increments the counter and returns the acquired name (the paper's
// increment has no return value; exposing the name costs nothing and the
// tests use it).
func (c *MonotoneCounter) Inc(p shmem.Proc) uint64 {
	name := c.ren.Rename(p, c.uids.Next(p))
	c.max.WriteMax(p, name)
	return name
}

// Read returns the counter value.
func (c *MonotoneCounter) Read(p shmem.Proc) uint64 {
	return c.max.ReadMax(p)
}

// CASCounter is the baseline linearizable counter: fetch-and-increment by
// CAS retry on a single word. Steps per increment are Θ(contention) under
// an adaptive adversary (each failed CAS is a wasted step), which is the
// behaviour the paper's counter improves on asymptotically.
//
// Every failed CAS also bumps a retry counter — the live contention signal
// the phased counter's mode switcher consumes (internal/phase). The slots
// are a fixed padded array indexed by masked process id: allocation-free,
// and two processes bumping different slots never share a cache line (ids
// that collide modulo the slot count share one, which only ever
// *under*-spreads the signal, never loses it).
type CASCounter struct {
	v       shmem.FastReg
	retries [casRetrySlots]retrySlot
}

// casRetrySlots is the retry-slot count (power of two; masked process id
// picks the slot).
const casRetrySlots = 8

// retrySlot keeps one retry counter alone on its cache line.
type retrySlot struct {
	n atomic.Uint64
	_ [56]byte
}

// NewCASCounter allocates the baseline counter.
func NewCASCounter(mem shmem.Mem) *CASCounter {
	return &CASCounter{v: shmem.Fast(mem.NewCASReg(0))}
}

// Reset restores the counter to zero, retry accounting included. Between
// executions only.
func (c *CASCounter) Reset() {
	c.v.Restore(0)
	for i := range c.retries {
		c.retries[i].n.Store(0)
	}
}

// Inc atomically increments and returns the new value.
func (c *CASCounter) Inc(p shmem.Proc) uint64 {
	for {
		v := c.v.Read(p)
		if c.v.CompareAndSwap(p, v, v+1) {
			return v + 1
		}
		c.retries[p.ID()&(casRetrySlots-1)].n.Add(1)
	}
}

// Retries returns the total failed-CAS count since construction or Reset —
// the contention gauge: retries/op ≈ how many competitors each increment
// raced. Summing the padded slots is sampling, not a step-counted
// operation.
func (c *CASCounter) Retries() uint64 {
	var t uint64
	for i := range c.retries {
		t += c.retries[i].n.Load()
	}
	return t
}

// Read returns the counter value.
func (c *CASCounter) Read(p shmem.Proc) uint64 {
	return c.v.Read(p)
}
