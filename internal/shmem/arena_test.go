package shmem

import "testing"

// fakeMem is a minimal third-party Mem (no ArenaMem), to exercise the
// NewRegs fallback path.
type fakeMem struct{}

type fakeReg struct{ v uint64 }

func (r *fakeReg) Read(p Proc) uint64     { return r.v }
func (r *fakeReg) Write(p Proc, v uint64) { r.v = v }
func (r *fakeReg) CompareAndSwap(p Proc, old, new uint64) bool {
	if r.v == old {
		r.v = new
		return true
	}
	return false
}
func (r *fakeReg) Restore(v uint64) { r.v = v }

func (fakeMem) NewReg(init uint64) Reg       { return &fakeReg{v: init} }
func (fakeMem) NewCASReg(init uint64) CASReg { return &fakeReg{v: init} }

func testArena(t *testing.T, name string, mem Mem) {
	t.Helper()
	rt, isRuntime := mem.(Runtime)
	a := NewRegs(mem, 16)
	if a.Len() != 16 {
		t.Fatalf("%s: Len = %d, want 16", name, a.Len())
	}
	write := func(p Proc) {
		for i := 0; i < a.Len(); i++ {
			if got := a.Reg(i).Read(p); got != 0 {
				t.Errorf("%s: reg %d initial value %d, want 0", name, i, got)
			}
			a.Reg(i).Write(p, uint64(i)+1)
			if !a.CASReg(i).CompareAndSwap(p, uint64(i)+1, uint64(i)+2) {
				t.Errorf("%s: CAS on reg %d failed", name, i)
			}
		}
	}
	if isRuntime {
		rt.Run(1, write)
	} else {
		write(nil)
	}
	a.Reset()
	check := func(p Proc) {
		for i := 0; i < a.Len(); i++ {
			if got := a.Reg(i).Read(p); got != 0 {
				t.Errorf("%s: reg %d = %d after Reset, want 0", name, i, got)
			}
		}
	}
	if isRuntime {
		if r, ok := rt.(interface{ Reset(uint64) }); ok {
			_ = r
		}
		// The native runtime supports repeated Run calls directly.
		rt.Run(1, check)
	} else {
		check(nil)
	}
}

func TestNativeArena(t *testing.T) {
	testArena(t, "padded", NewNative(1, WithRegisterPadding(true)))
	testArena(t, "unpadded", NewNative(1, WithRegisterPadding(false)))
}

func TestFallbackArena(t *testing.T) {
	testArena(t, "fallback", fakeMem{})
}

func TestRestoreHelper(t *testing.T) {
	mem := NewNative(1)
	r := mem.NewReg(0)
	Restore(r, 42)
	mem.Run(1, func(p Proc) {
		if got := r.Read(p); got != 42 {
			t.Fatalf("restored value = %d, want 42", got)
		}
	})
}
