package main

import (
	"fmt"

	"repro/internal/cluster"
)

// The correctness checks. Each compares values the program returned with
// the specification of the object that returned them; a violation fails
// the run (correct=false, non-zero exit).

// checkRenameWave: a k-process strong adaptive renaming execution hands
// out exactly the names {1..k}.
func checkRenameWave(names []uint64) error {
	k := uint64(len(names))
	var seen [maxK + 1]bool
	for p, v := range names {
		if v < 1 || v > k {
			return fmt.Errorf("rename wave k=%d: process %d got name %d outside [1,%d]", k, p, v, k)
		}
		if seen[v] {
			return fmt.Errorf("rename wave k=%d: name %d handed out twice", k, v)
		}
		seen[v] = true
	}
	return nil
}

// checkCountWave: in a k-process counting execution where each process
// calls Inc then Read, the Inc values are distinct in [1..k], each Read is
// at least the reader's own Inc value and at most k, and a Read after the
// execution (quiescent) returns k.
func checkCountWave(incs, reads []uint64, quiescent uint64) error {
	k := uint64(len(incs))
	var seen [maxK + 1]bool
	for p, v := range incs {
		if v < 1 || v > k {
			return fmt.Errorf("count wave k=%d: process %d Inc returned %d outside [1,%d]", k, p, v, k)
		}
		if seen[v] {
			return fmt.Errorf("count wave k=%d: Inc value %d returned twice", k, v)
		}
		seen[v] = true
		if r := reads[p]; r < v || r > k {
			return fmt.Errorf("count wave k=%d: process %d read %d after its Inc returned %d (want [%d,%d])", k, p, r, v, v, k)
		}
	}
	if quiescent != k {
		return fmt.Errorf("count wave k=%d: quiescent Read returned %d", k, quiescent)
	}
	return nil
}

// Op kinds of the pool-ops and cluster-batch mixes.
const (
	opRename = iota
	opInc
	opRead
)

var opNames = [...]string{"rename", "inc", "read"}

// checkSolo: a pooled instance is reset on every Put, so each pooled op is
// the only call on a fresh object. A solo Rename is the one participant of
// a tight renaming (name 1), a solo Inc acquires name 1, and a Read of a
// counter no one incremented returns 0.
func checkSolo(kind int, v uint64) error {
	want := uint64(1)
	if kind == opRead {
		want = 0
	}
	if v != want {
		return fmt.Errorf("pooled solo %s returned %d, want %d", opNames[kind], v, want)
	}
	return nil
}

// checkClusterReply: a cluster rename reply lies in the name range
// [Base, Base+Span) of the node Ring.Route(key) selects, and an increment
// acquires a name of at least 1.
func checkClusterReply(ring *cluster.Ring, kind int, key, v uint64) error {
	switch kind {
	case opRename:
		n := ring.Node(ring.Route(key))
		if v < n.Base || v >= n.Base+n.Span {
			return fmt.Errorf("cluster rename of key %d returned %d outside node %d's range %s", key, v, n.ID, n.Range())
		}
	case opInc:
		if v < 1 {
			return fmt.Errorf("cluster inc of key %d returned %d, want >= 1", key, v)
		}
	}
	return nil
}
