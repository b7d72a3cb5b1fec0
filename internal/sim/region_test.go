package sim

import (
	"testing"

	"repro/internal/shmem"
)

// TestRegionOverSimIsSerial pins that a region over the simulator keeps the
// simulator's Serial marker (lazy tables built on it stay unsynchronized)
// and that its registers are the simulator's own, step-accounted ones.
func TestRegionOverSimIsSerial(t *testing.T) {
	rt := New(1, NewSequential())
	region := shmem.RegionOf(rt)
	if !shmem.IsSerial(region) {
		t.Fatal("region over the simulator must be Serial")
	}
	r := region.NewCASReg(3)
	if _, ok := r.(*reg); !ok {
		t.Fatalf("region register is %T, want the simulator's register", r)
	}
	st := rt.Run(1, func(p shmem.Proc) {
		if v := r.Read(p); v != 3 {
			t.Errorf("Read = %d, want 3", v)
		}
		r.Write(p, 4)
	})
	if st.TotalSteps() != 2 {
		t.Fatalf("steps = %d, want 2", st.TotalSteps())
	}
	region.Reset()
	rt.Reset(1, NewSequential())
	rt.Run(1, func(p shmem.Proc) {
		if v := r.Read(p); v != 3 {
			t.Errorf("after Reset Read = %d, want 3", v)
		}
	})
}
