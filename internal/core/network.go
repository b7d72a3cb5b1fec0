package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/shmem"
	"repro/internal/sortnet"
	"repro/internal/splitter"
	"repro/internal/tas"
)

// RenamingNetwork is the Section 5 construction: a sorting network with
// every comparator replaced by a two-process test-and-set. A process enters
// on the input wire of its initial name, moves up when it wins a comparator
// and down when it loses, and returns the index of the output wire it
// reaches.
//
// Theorem 1: for any sorting network of width M this solves strong adaptive
// renaming for initial names in [1, M] — the k participants return exactly
// the names 1..k — with step complexity proportional to the network depth.
type RenamingNetwork struct {
	bp  *RenamingNetworkBlueprint
	reg *shmem.Region // every comparator's registers
	mk  tas.SidedMaker

	// comps lazily maps stage<<32|index to the comparator's TAS object.
	comps *shmem.LazyTable[tas.Sided]
}

// NewRenamingNetwork builds a renaming network over an explicit sorting
// network (compile-once + instantiate; the lookup tables are cached
// process-wide per network). Comparator TAS objects are allocated lazily:
// in an execution with contention k only O(k·depth) of them are ever
// touched.
func NewRenamingNetwork(mem shmem.Mem, net *sortnet.Network, mk tas.SidedMaker) *RenamingNetwork {
	return CompileRenamingNetwork(net).Instantiate(mem, mk)
}

// Width returns the number of input wires (the bound M on initial names).
func (rn *RenamingNetwork) Width() int { return rn.bp.net.W }

// Depth returns the network depth, which bounds the number of test-and-set
// objects any process enters.
func (rn *RenamingNetwork) Depth() int { return rn.bp.net.Depth() }

// Reset restores every allocated comparator to its unentered state,
// keeping the lazily built comparator table: one sweep of the network's
// region. Between executions only.
func (rn *RenamingNetwork) Reset() { rn.reg.Reset() }

func (rn *RenamingNetwork) comp(stage int, ci int32) tas.Sided {
	key := uint64(stage)<<32 | uint64(uint32(ci))
	if t, ok := rn.comps.Lookup(key); ok {
		return t
	}
	return rn.comps.Insert(key, rn.mk(rn.reg))
}

// Rename routes the process holding initial name uid ∈ [1, M] through the
// network and returns its output name in [1, k].
func (rn *RenamingNetwork) Rename(p shmem.Proc, uid uint64) uint64 {
	if uid < 1 || uid > uint64(rn.bp.net.W) {
		panic(fmt.Sprintf("core: initial name %d outside [1,%d]", uid, rn.bp.net.W))
	}
	wire := int32(uid - 1)
	for s, stage := range rn.bp.net.Stages {
		ci := rn.bp.lookup[s][wire]
		if ci < 0 {
			continue
		}
		c := stage[ci]
		side := 0
		if wire == c.B {
			side = 1
		}
		shmem.NoteFast(p, shmem.EvComparator)
		if rn.comp(s, ci).TestAndSetSide(p, side) {
			wire = c.A // winner moves up
		} else {
			wire = c.B // loser moves down
		}
	}
	return uint64(wire) + 1
}

// StrongAdaptive is the Section 6.2 algorithm, the paper's headline result:
// optimal-time adaptive strong renaming. Stage one acquires a temporary
// name from a randomized splitter tree (TempName, O(log k) steps and a
// name ≤ k^c w.h.p.); stage two routes the process through a renaming
// network built on the unbounded adaptive sorting network of Section 6.1,
// entering on the wire of its temporary name.
//
// Theorem 3: names are exactly 1..k; the step complexity is O(log k)
// two-process test-and-set entries, i.e. O(log k) steps in expectation and
// O(log² k) with high probability (with the paper's AKS base these
// constants drop by one log factor; we use the constructible Batcher base,
// c = 2 — see BENCHMARKS.md).
type StrongAdaptive struct {
	reg  *shmem.Region // comparators and (unless injected) the splitter tree
	mk   tas.SidedMaker
	tree TempNamer
	// ownTree reports that tree was built on reg, so the region's sweep
	// already resets it; an injected TempNamer keeps its own Reset.
	ownTree bool
	ad      *sortnet.Adaptive

	// comps lazily maps Comp.Key() to the comparator's node: its shared
	// TAS object plus the cached links to the comparators that follow it.
	// Walks find their entry comparator here and then follow links; a
	// node is looked up again only when one of its links is first set.
	comps *shmem.LazyTable[*compNode]
}

// compNode is one comparator of a StrongAdaptive instance. Besides the
// shared TAS object it caches the walk's topology: a comparator's
// continuation depends only on which comparator it is and which wire the
// process leaves on, so succ[0] (after winning, leaving on the up wire)
// and succ[1] (after losing, on the down wire) are computed once and then
// followed as pointers. A nil link is not computed yet; walkEnd means the
// walk leaves the network there.
//
// Links are a topology cache, not shared memory: setting or following one
// is charged no step, they survive Reset (the region sweep touches only
// registers), and they behave alike on every runtime. Concurrent walkers
// may set a link at once, but they store the same pointer: LazyTable.Insert
// returns one node per key. The node keeps the key and the down wire (the
// up wire is the key's Low field) rather than the 32-byte sortnet.Comp,
// which keeps it at 48 bytes on 64-bit platforms, within one cache line's
// size; padding it to a full aligned line measured no faster.
type compNode struct {
	tas  tas.Sided
	key  uint64
	down uint64
	succ [2]atomic.Pointer[compNode]
}

// walkEnd is the shared link target past an output wire.
var walkEnd = new(compNode)

// node returns the comparator's node, creating it on first use.
func (sa *StrongAdaptive) node(c sortnet.Comp, down uint64) *compNode {
	key := c.Key()
	if n, ok := sa.comps.Lookup(key); ok {
		return n
	}
	return sa.comps.Insert(key, &compNode{tas: sa.mk(sa.reg), key: key, down: down})
}

// link computes and stores n's successor after leaving on wire w through
// side exit (0 up, 1 down): the slow path of the linked walk.
func (sa *StrongAdaptive) link(n *compNode, exit int, w uint64) *compNode {
	next := walkEnd
	if c, _, down, ok := sa.ad.Next(sortnet.CompOfKey(n.key), w); ok {
		next = sa.node(c, down)
	}
	n.succ[exit].Store(next)
	return next
}

var _ Renamer = (*StrongAdaptive)(nil)

// TempNamer produces unique temporary names ≥ 1 (stage one). It is an
// interface so tests can exercise the renaming network with adversarially
// chosen temporary names.
type TempNamer interface {
	Acquire(p shmem.Proc, uid uint64) uint64
}

// NewStrongAdaptive builds the two-stage algorithm. The adaptive sorting
// network spans 2^32 wires; nothing is materialized, and a process entering
// on wire t only ever touches O(log² t) comparators.
func NewStrongAdaptive(mem shmem.Mem, tree TempNamer, mk tas.SidedMaker) *StrongAdaptive {
	return NewStrongAdaptiveWithBase(mem, tree, mk, sortnet.BaseOEM)
}

// NewStrongAdaptiveWithBase is NewStrongAdaptive with an explicit base
// sorting network for the adaptive construction (the ablation knob of
// BENCHMARKS.md; both available bases have depth exponent c = 2).
// Compile-once + instantiate under the hood.
func NewStrongAdaptiveWithBase(mem shmem.Mem, tree TempNamer, mk tas.SidedMaker, base sortnet.Base) *StrongAdaptive {
	return CompileStrongAdaptive(base).InstantiateWithTempNamer(mem, tree, mk)
}

// Reset restores the instance to its unentered state — the splitter tree
// and every allocated comparator — keeping the lazily built object graph:
// one sweep of the instance's region. An injected TempNamer is reset
// through its own Reset, so it must be resettable (the standard splitter
// tree is). Between executions only.
func (sa *StrongAdaptive) Reset() {
	sa.reg.Reset()
	if !sa.ownTree {
		sa.tree.(shmem.Resettable).Reset()
	}
}

// Region returns the region the instance's registers come from (a probe
// for tests and space accounting).
func (sa *StrongAdaptive) Region() *shmem.Region { return sa.reg }

// Network exposes the underlying adaptive sorting network (benchmarks
// report its per-level depths against Theorem 2).
func (sa *StrongAdaptive) Network() *sortnet.Adaptive { return sa.ad }

// ComparatorObjects returns the number of comparator TAS objects allocated
// so far — the adaptive space probe.
func (sa *StrongAdaptive) ComparatorObjects() int {
	return sa.comps.Len()
}

// SplitterNodes returns the number of splitter-tree nodes allocated by
// stage one, or 0 if the TempNamer is not the standard splitter tree.
func (sa *StrongAdaptive) SplitterNodes() int {
	if t, ok := sa.tree.(*splitter.Tree); ok {
		return t.Size()
	}
	return 0
}

// Rename returns a name in [1, k]. uid must be globally unique and nonzero.
// Stage two enters the network at the comparator of the temporary name's
// wire and then follows the comparators' successor links, computing a
// link from the network only the first time any walk leaves through it.
func (sa *StrongAdaptive) Rename(p shmem.Proc, uid uint64) uint64 {
	tmp := sa.tree.Acquire(p, uid) // stage one: temporary name ≥ 1
	wire := tmp - 1
	c, _, down, ok := sa.ad.First(wire)
	if !ok {
		return tmp
	}
	for n := sa.node(c, down); n != walkEnd; {
		side := 0
		if wire == n.down {
			side = 1
		}
		shmem.NoteFast(p, shmem.EvComparator)
		exit := 0
		if n.tas.TestAndSetSide(p, side) {
			wire = sortnet.CompOfKey(n.key).Low // winner moves up
		} else {
			wire, exit = n.down, 1 // loser moves down
		}
		next := n.succ[exit].Load()
		if next == nil {
			next = sa.link(n, exit, wire)
		}
		n = next
	}
	return wire + 1
}
