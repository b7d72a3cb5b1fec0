package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/shmem"
	"repro/internal/sortnet"
	"repro/internal/tas"
)

// LTestAndSet is Algorithm 1: a linearizable ℓ-test-and-set — a test-and-set
// generalized to exactly ℓ winners. A caller runs the strong adaptive
// renaming protocol behind a doorway bit and wins iff its name is at
// most ℓ; a loser closes the doorway, so late arrivals return false without
// renaming (the doorway is what makes the object linearizable, Lemma 5).
//
// Expected step complexity is O(log k). Each invocation must carry a unique
// uid (Try manages them internally).
type LTestAndSet struct {
	ell     uint64
	reg     *shmem.Region // the doorway's and the renamer's registers
	doorway shmem.FastReg
	ren     Renamer
	uids    UIDSource
}

// NewLTestAndSet builds an ℓ-test-and-set over a fresh strong adaptive
// renaming instance, both on shmem.RegionOf(mem).
func NewLTestAndSet(mem shmem.Mem, ell uint64, mk tas.SidedMaker) *LTestAndSet {
	o := &LTestAndSet{ell: ell}
	if ell > 0 {
		o.reg = shmem.RegionOf(mem)
		o.doorway = shmem.Fast(o.reg.NewReg(0))
		o.ren = CompileStrongAdaptive(sortnet.BaseOEM).Instantiate(o.reg, mk)
	}
	return o
}

// Ell returns ℓ, the number of winners.
func (o *LTestAndSet) Ell() uint64 { return o.ell }

// Reset restores the object to its unentered state — doorway open, renamer
// and uid streams rewound — keeping the allocated graph: one sweep of its
// region plus the uid streams. Between executions only.
func (o *LTestAndSet) Reset() {
	if o.ell == 0 {
		return
	}
	o.reg.Reset()
	o.uids.Reset()
}

// Try returns true for exactly the first ℓ linearized invocations.
func (o *LTestAndSet) Try(p shmem.Proc) bool {
	if o.ell == 0 {
		return false // the trivial 0-test-and-set: nobody wins
	}
	if o.doorway.Read(p) != 0 {
		return false
	}
	name := o.ren.Rename(p, o.uids.Next(p))
	if name <= o.ell {
		return true
	}
	o.doorway.Write(p, 1)
	return false
}

// FetchInc is Algorithm 2: a linearizable m-valued fetch-and-increment.
// An ℓ-valued object is one ℓ/2-test-and-set routing winners to a left and
// losers to a right (ℓ/2)-valued object; losers add ℓ/2 to the recursive
// result. Leaves are the trivial 0-valued object that always returns 0, so
// once m increments have happened the object saturates at m−1 — exactly
// the paper's sequential specification.
//
// Theorem 6: linearizable, with step complexity O(log k · log m) in
// expectation and O(log² k · log m) w.h.p. For general m the object is the
// next power of two's object with results clamped to m−1 (the paper's
// remark after Algorithm 2).
type FetchInc struct {
	reg *shmem.Region // every node's registers
	mk  tas.SidedMaker
	m   uint64
	// root has capacity mPow, the smallest power of two ≥ m.
	root *faiNode
}

type faiNode struct {
	cap  uint64 // ℓ: this object counts 0..ℓ−1
	test *LTestAndSet

	// Children are published through an atomic pointer so the recursive
	// descent of every Inc takes no lock; the mutex only serializes the
	// one-time allocation.
	mu   sync.Mutex
	kids atomic.Pointer[faiKids]
}

type faiKids struct {
	left, right *faiNode
}

// NewFetchInc builds an m-valued fetch-and-increment, m ≥ 1. Nodes and
// their renaming objects are allocated lazily on first traversal.
func NewFetchInc(mem shmem.Mem, m uint64, mk tas.SidedMaker) *FetchInc {
	if m < 1 {
		panic("core: FetchInc needs m >= 1")
	}
	mPow := uint64(1)
	for mPow < m {
		mPow *= 2
	}
	f := &FetchInc{reg: shmem.RegionOf(mem), mk: mk, m: m}
	f.root = f.newNode(mPow)
	return f
}

func (f *FetchInc) newNode(cap uint64) *faiNode {
	n := &faiNode{cap: cap}
	if cap > 1 {
		n.test = NewLTestAndSet(f.reg, cap/2, f.mk)
	}
	return n
}

// children returns the node's two (cap/2)-valued sub-objects.
func (f *FetchInc) children(n *faiNode) (*faiNode, *faiNode) {
	if k := n.kids.Load(); k != nil {
		return k.left, k.right
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if k := n.kids.Load(); k != nil {
		return k.left, k.right
	}
	k := &faiKids{left: f.newNode(n.cap / 2), right: f.newNode(n.cap / 2)}
	n.kids.Store(k)
	return k.left, k.right
}

// M returns the capacity m.
func (f *FetchInc) M() uint64 { return f.m }

// Reset restores the object to zero increments, keeping the lazily built
// node tree: one sweep of the region restores every node's registers, and
// a walk rewinds the nodes' uid streams (bookkeeping outside the region).
// Between executions only.
func (f *FetchInc) Reset() {
	f.reg.Reset()
	f.root.resetUIDs()
}

func (n *faiNode) resetUIDs() {
	if n.cap <= 1 {
		return
	}
	n.test.uids.Reset()
	if k := n.kids.Load(); k != nil {
		k.left.resetUIDs()
		k.right.resetUIDs()
	}
}

// Inc performs fetch-and-increment: the i-th linearized call returns i
// (counting from 0) for i < m, and m−1 forever after.
func (f *FetchInc) Inc(p shmem.Proc) uint64 {
	v := f.run(p, f.root)
	if v >= f.m {
		return f.m - 1 // general-m clamp
	}
	return v
}

func (f *FetchInc) run(p shmem.Proc, n *faiNode) uint64 {
	if n.cap <= 1 {
		// cap 0: the empty object. cap 1: its ℓ/2-test-and-set is the
		// trivial 0-TAS (everyone loses) and both children are 0-valued,
		// so every path returns 0 — shortcut without burning steps.
		return 0
	}
	left, right := f.children(n)
	if n.test.Try(p) {
		return f.run(p, left)
	}
	return n.cap/2 + f.run(p, right)
}

// String describes the object.
func (f *FetchInc) String() string {
	return fmt.Sprintf("FetchInc(m=%d, pow2=%d)", f.m, f.root.cap)
}
