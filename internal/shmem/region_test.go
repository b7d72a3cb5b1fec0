package shmem

import (
	"sync"
	"testing"
)

// regionValues reads every register the region handed out (through a
// standalone native proc: outside any execution, one goroutine).
func regionValues(r *Region) (vals, inits []uint64) {
	p := NewNative(0).NewProc(0)
	r.Each(func(reg CASReg, init uint64) {
		vals = append(vals, reg.Read(p))
		inits = append(inits, init)
	})
	return vals, inits
}

func TestRegionResetRestoresInitialValues(t *testing.T) {
	for name, mem := range map[string]Mem{
		"native":   NewNative(1),
		"serial":   &serialMem{},
		"fallback": fakeMem{},
	} {
		r := RegionOf(mem)
		var regs []CASReg
		want := make([]uint64, 600) // spans every chunk size up to the cap
		for i := range want {
			if i%3 == 0 {
				want[i] = uint64(i) + 7
			}
			regs = append(regs, r.NewCASReg(want[i]))
		}
		p := NewNative(0).NewProc(0)
		for i, reg := range regs {
			if got := reg.Read(p); got != want[i] {
				t.Fatalf("%s: reg %d fresh value %d, want %d", name, i, got, want[i])
			}
			reg.Write(p, 1<<40+uint64(i))
		}
		r.Reset()
		for i, reg := range regs {
			if got := reg.Read(p); got != want[i] {
				t.Fatalf("%s: reg %d after Reset = %d, want %d", name, i, got, want[i])
			}
		}
		vals, inits := regionValues(r)
		if len(vals) != len(want) {
			t.Fatalf("%s: Each visited %d registers, want %d", name, len(vals), len(want))
		}
		for i := range vals {
			if vals[i] != want[i] || inits[i] != want[i] {
				t.Fatalf("%s: Each reg %d = (%d, init %d), want %d", name, i, vals[i], inits[i], want[i])
			}
		}
	}
}

func TestRegionArenasSweptWithChunks(t *testing.T) {
	r := RegionOf(NewNative(1))
	single := r.NewReg(0)
	a := NewRegs(r, 20) // goes through Region.NewRegs
	p := NewNative(0).NewProc(0)
	single.Write(p, 5)
	for i := 0; i < a.Len(); i++ {
		a.Reg(i).Write(p, uint64(i)+1)
	}
	r.Reset()
	if v := single.Read(p); v != 0 {
		t.Fatalf("chunk register after Reset = %d, want 0", v)
	}
	for i := 0; i < a.Len(); i++ {
		if v := a.Reg(i).Read(p); v != 0 {
			t.Fatalf("arena register %d after Reset = %d, want 0", i, v)
		}
	}
	if vals, _ := regionValues(r); len(vals) != 21 {
		t.Fatalf("Each visited %d registers, want 21", len(vals))
	}
}

func TestRegionOfRegionJoins(t *testing.T) {
	r := RegionOf(NewNative(1))
	if RegionOf(r) != r {
		t.Fatal("RegionOf(region) must return the region itself")
	}
}

func TestRegionInheritsSerial(t *testing.T) {
	if !IsSerial(RegionOf(&serialMem{})) {
		t.Error("region over a serial Mem must be serial")
	}
	if IsSerial(RegionOf(NewNative(1))) {
		t.Error("region over the native runtime must not be serial")
	}
}

// TestRegionConcurrentAllocation allocates from many goroutines at once (run
// it under -race): every register handed out must be distinct and hold its
// own initial value.
func TestRegionConcurrentAllocation(t *testing.T) {
	const goroutines, per = 8, 200
	r := RegionOf(NewNative(1))
	regs := make([][]CASReg, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				regs[g] = append(regs[g], r.NewCASReg(uint64(g*per+i)))
			}
		}()
	}
	wg.Wait()
	p := NewNative(0).NewProc(0)
	seen := make(map[CASReg]bool, goroutines*per)
	for g := range regs {
		for i, reg := range regs[g] {
			if seen[reg] {
				t.Fatalf("goroutine %d reg %d handed out twice", g, i)
			}
			seen[reg] = true
			if v := reg.Read(p); v != uint64(g*per+i) {
				t.Fatalf("goroutine %d reg %d = %d, want %d", g, i, v, g*per+i)
			}
		}
	}
	if vals, _ := regionValues(r); len(vals) != goroutines*per {
		t.Fatalf("Each visited %d registers, want %d", len(vals), goroutines*per)
	}
}
