package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/shmem"
)

// LongLived extends one-shot strong adaptive renaming toward the paper's
// Section 9 future-work direction: long-lived renaming, where processes
// release names for reuse.
//
// Construction (an engineering layer over the paper's object, not a
// solution to the open problem of optimal long-lived renaming): a Treiber
// free-list of released names over unit-cost CAS plus the one-shot strong
// adaptive renamer as the growth path. Acquire pops a released name if one
// is available and otherwise draws a fresh name from the renamer; Release
// pushes the name back.
//
// Guarantees:
//   - uniqueness: at any time, no two unreleased acquisitions hold the
//     same name (free-list pops are linearizable; fresh names are unique by
//     Theorem 3);
//   - bounded namespace: names never exceed the historical peak of
//     concurrently-held names plus the contention of concurrent acquires
//     (released names are preferred over growth);
//   - lock-freedom: a failed pop means another acquire succeeded.
//
// The step complexity of the fast path is O(1) expected (one CAS, retried
// only under contention on the list head); the growth path inherits the
// renamer's O(log k).
type LongLived struct {
	ren  Renamer
	uids UIDSource
	// head packs (tag << 32 | name): name is the list top (0 = empty) and
	// the tag is a version counter bumped on every successful CAS, which
	// defeats the classic Treiber ABA race (a pop concurrent with a
	// pop/re-push cycle must not install a stale next pointer).
	head shmem.FastReg
	// cells[i] is the next-pointer of the list node for name i+1. Names are
	// small and dense, so nodes are allocated lazily by index and published
	// copy-on-write through an atomic pointer: Acquire/Release look cells
	// up lock-free, and only table growth takes the mutex (allocation is
	// bookkeeping outside the step-counted model).
	mu    sync.Mutex
	cells atomic.Pointer[[]shmem.FastReg]
	reg   *shmem.Region // head and cells
}

// NewLongLived wraps a renamer into a long-lived name allocator. The free
// list's registers come from shmem.RegionOf(mem); the renamer keeps its
// own Reset.
func NewLongLived(mem shmem.Mem, ren Renamer) *LongLived {
	reg := shmem.RegionOf(mem)
	return &LongLived{ren: ren, reg: reg, head: shmem.Fast(reg.NewCASReg(0))}
}

// Reset restores the allocator to its empty state: the free list, every
// next-pointer cell, the renamer, and the uid streams all rewind, keeping
// the allocated graph. Names held at reset time — including names held by
// processes that crashed mid-execution — are reclaimed wholesale: the next
// execution draws from a fresh tight namespace, so crashed holders cannot
// leak names across reuses (the recycle test pins this). Between
// executions only.
func (l *LongLived) Reset() {
	l.reg.Reset()
	l.ren.(shmem.Resettable).Reset()
	l.uids.Reset()
}

// cell returns the next-pointer register for the given name.
func (l *LongLived) cell(name uint64) shmem.FastReg {
	if cells := l.cells.Load(); cells != nil && name <= uint64(len(*cells)) {
		return (*cells)[name-1]
	}
	return l.growCells(name)
}

// growCells extends the cell table to cover name (copy-on-write; register
// identity is stable across growth).
func (l *LongLived) growCells(name uint64) shmem.FastReg {
	l.mu.Lock()
	defer l.mu.Unlock()
	var cur []shmem.FastReg
	if cells := l.cells.Load(); cells != nil {
		cur = *cells
	}
	if name <= uint64(len(cur)) {
		return cur[name-1]
	}
	next := make([]shmem.FastReg, name)
	copy(next, cur)
	for i := uint64(len(cur)); i < name; i++ {
		next[i] = shmem.Fast(l.reg.NewCASReg(0))
	}
	l.cells.Store(&next)
	return next[name-1]
}

const llNameMask = 1<<32 - 1

func llPack(tag, name uint64) uint64 { return tag<<32 | name }

// Acquire returns a name unique among current holders: a recycled one when
// available, a fresh tight name otherwise.
func (l *LongLived) Acquire(p shmem.Proc) uint64 {
	for {
		h := l.head.Read(p)
		name := h & llNameMask
		if name == 0 {
			return l.ren.Rename(p, l.uids.Next(p))
		}
		next := l.cell(name).Read(p)
		if l.head.CompareAndSwap(p, h, llPack(h>>32+1, next)) {
			return name
		}
		// Lost the race for the head: another Acquire or Release moved
		// it; retry (lock-free, not wait-free).
	}
}

// Release returns a previously acquired name to the pool. Releasing a name
// that is not currently held corrupts the allocator, as with any free().
func (l *LongLived) Release(p shmem.Proc, name uint64) {
	if name == 0 || name > llNameMask {
		panic("core: Release of invalid name")
	}
	cell := l.cell(name)
	for {
		h := l.head.Read(p)
		cell.Write(p, h&llNameMask)
		if l.head.CompareAndSwap(p, h, llPack(h>>32+1, name)) {
			return
		}
	}
}
