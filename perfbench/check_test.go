package main

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

func TestCheckRenameWave(t *testing.T) {
	if err := checkRenameWave([]uint64{3, 1, 4, 2}); err != nil {
		t.Fatalf("valid wave rejected: %v", err)
	}
	for _, names := range [][]uint64{
		{1, 2, 2, 4}, // duplicate
		{1, 2, 3, 5}, // outside [1,k]
		{0, 1, 2, 3}, // name 0
	} {
		if checkRenameWave(names) == nil {
			t.Errorf("corrupted names %v accepted", names)
		}
	}
}

func TestCheckCountWave(t *testing.T) {
	incs, reads := []uint64{2, 1, 3}, []uint64{3, 1, 3}
	if err := checkCountWave(incs, reads, 3); err != nil {
		t.Fatalf("valid wave rejected: %v", err)
	}
	cases := []struct {
		name        string
		incs, reads []uint64
		quiescent   uint64
	}{
		{"duplicate inc", []uint64{2, 2, 3}, []uint64{3, 3, 3}, 3},
		{"inc above k", []uint64{2, 1, 4}, []uint64{3, 1, 4}, 3},
		{"read below own inc", []uint64{2, 1, 3}, []uint64{1, 1, 3}, 3},
		{"read above k", []uint64{2, 1, 3}, []uint64{4, 1, 3}, 3},
		{"quiescent read short", incs, reads, 2},
	}
	for _, c := range cases {
		if checkCountWave(c.incs, c.reads, c.quiescent) == nil {
			t.Errorf("%s: corrupted wave accepted", c.name)
		}
	}
}

func TestCheckSolo(t *testing.T) {
	for kind, v := range map[int]uint64{opRename: 1, opInc: 1, opRead: 0} {
		if err := checkSolo(kind, v); err != nil {
			t.Errorf("valid solo %s rejected: %v", opNames[kind], err)
		}
		if checkSolo(kind, v+1) == nil {
			t.Errorf("corrupted solo %s value %d accepted", opNames[kind], v+1)
		}
	}
}

func TestCheckClusterReply(t *testing.T) {
	ring, err := cluster.New([]string{"a:1", "b:2"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	const key = 7
	n := ring.Node(ring.Route(key))
	other := ring.Node(1 - ring.Route(key))
	if err := checkClusterReply(ring, opRename, key, n.Base+1); err != nil {
		t.Fatalf("valid rename rejected: %v", err)
	}
	for _, v := range []uint64{other.Base + 1, n.Base + n.Span} {
		if checkClusterReply(ring, opRename, key, v) == nil {
			t.Errorf("rename reply %d outside %s accepted", v, n.Range())
		}
	}
	if checkClusterReply(ring, opInc, key, 0) == nil {
		t.Error("inc reply 0 accepted")
	}
}

func TestLatRecStrideKeepsQuantiles(t *testing.T) {
	r := newLatRec()
	const n = 3*sampleCap + 17
	for i := 0; i < n; i++ {
		r.add(int64(i % 1000))
	}
	if len(r.buf) > sampleCap || r.stride != 4 {
		t.Fatalf("subsample len %d stride %d, want <= %d and 4", len(r.buf), r.stride, sampleCap)
	}
	var tm timing
	tm.mergeRecs([]*latRec{r})
	if p50 := tm.quantile(0.5); p50 < 490 || p50 > 510 {
		t.Errorf("p50 = %v, want about 500", p50)
	}
	if tm.hist.Count() != n {
		t.Errorf("hist count %d, want %d", tm.hist.Count(), n)
	}
}

func TestSelfTimes(t *testing.T) {
	// A root of 100 ns with two overlapping children covering [10,50) and
	// a third covering [80,120), clipped to [80,100): self is 100-40-20.
	spans := []obs.Span{
		{ID: 1, Kind: kindWave, Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Kind: kindProc, Start: 10, Dur: 30},
		{ID: 3, Parent: 1, Kind: kindProc, Start: 20, Dur: 30},
		{ID: 4, Parent: 1, Kind: kindPut, Start: 80, Dur: 40},
	}
	for _, st := range selfTimes(spans) {
		if st.kindStr == "bench.wave" && st.selfNS != 40 {
			t.Errorf("wave self time %d, want 40", st.selfNS)
		}
		if st.kindStr == "core.proc" && st.selfNS != 60 {
			t.Errorf("proc self time %d, want 60", st.selfNS)
		}
	}
}
