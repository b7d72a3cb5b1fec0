package shmem

// This file is the shared-state half of the two-phase object model. Every
// object in this repository is split into a runtime-independent blueprint
// (topology, geometry, layouts — compiled once per parameter point and
// cached process-wide) and an instantiation that stamps shared state onto
// one runtime's Mem. The hooks here make instantiation bulk (arenas) and
// re-instantiation free (Reset restores shared state in place, without
// reallocating the object graph). Lazily growing graphs take both from a
// Region (region.go): every register of the graph comes out of the
// region's chunked arenas, and the graph's Reset is one sweep per chunk
// rather than a walk over its objects.

// Resettable is implemented by instantiated objects whose shared state can
// be restored to its initial (just-instantiated) value without
// reallocation. Reset must only be called between executions — no process
// may be running against the object — and charges no simulated steps: like
// allocation, it is bookkeeping outside the shared-memory model.
//
// After Reset, an execution against the object is indistinguishable from
// one against a freshly instantiated copy: for a fixed (seed, adversary)
// the simulator produces bit-identical Stats either way (the reuse
// equivalence tests pin this down).
//
// Objects built on a Region restore their registers through it: Reset is
// Region.Reset plus the object's non-register bookkeeping, and it restores
// every object sharing that region at once.
type Resettable interface {
	Reset()
}

// TryReset resets obj if it is Resettable and reports whether it was.
func TryReset(obj any) bool {
	if r, ok := obj.(Resettable); ok {
		r.Reset()
		return true
	}
	return false
}

// Restorer is implemented by registers whose value can be restored outside
// an execution (between runs: no Proc, no step accounting). Both runtimes'
// registers implement it; object Reset methods are built on it.
type Restorer interface {
	Restore(v uint64)
}

// Restore sets a register to v outside any execution. It panics when the
// register implementation does not support restoration — an object built
// over such registers cannot be Reset and must be re-instantiated.
func Restore(r Reg, v uint64) {
	r.(Restorer).Restore(v)
}

// RegArena is a block of registers bulk-allocated from one runtime. All
// registers are initialized to zero and share backing storage, so
// instantiating an object of n registers costs O(1) allocations instead of
// n, and Reset restores the whole block in one sweep. Reg(i) and CASReg(i)
// address the same underlying word — both runtimes back Reg and CASReg
// with the same register type.
type RegArena interface {
	// Len returns the number of registers in the arena.
	Len() int
	// Reg returns register i as a plain register.
	Reg(i int) Reg
	// CASReg returns register i with its compare-and-swap face.
	CASReg(i int) CASReg
	// Reset restores every register in the arena to zero. Like Restore, it
	// must only run between executions.
	Reset()
}

// ArenaMem is the optional bulk-allocation extension of Mem. Both runtimes
// implement it; NewRegs falls back to register-at-a-time allocation for
// third-party Mems.
type ArenaMem interface {
	Mem
	// NewRegs allocates n zero-initialized registers in one arena.
	NewRegs(n int) RegArena
}

// NewRegs allocates an arena of n zero-initialized registers from mem,
// using the runtime's native arena when available and falling back to
// individual allocation otherwise. The fallback still supports Reset as
// long as mem's registers implement Restorer.
func NewRegs(mem Mem, n int) RegArena {
	if am, ok := mem.(ArenaMem); ok {
		return am.NewRegs(n)
	}
	a := fallbackArena(make([]CASReg, n))
	for i := range a {
		a[i] = mem.NewCASReg(0)
	}
	return a
}

// fallbackArena adapts register-at-a-time allocation to the arena shape.
type fallbackArena []CASReg

func (a fallbackArena) Len() int            { return len(a) }
func (a fallbackArena) Reg(i int) Reg       { return a[i] }
func (a fallbackArena) CASReg(i int) CASReg { return a[i] }

func (a fallbackArena) Reset() {
	for _, r := range a {
		Restore(r, 0)
	}
}
