package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/countnet"
	"repro/internal/shmem"
)

// E17CountingNetworks positions counting networks [26] against the paper's
// renaming networks, per Section 3: a bitonic counting network balances
// tokens (step property) and counts, while a renaming network assigns
// tight one-shot names; with one token per wire the two coincide [27].
func E17CountingNetworks(cfg Config) *Table {
	t := &Table{
		ID:    "E17",
		Title: "Related work: counting networks (§3, [26,27])",
		Claim: "bitonic[w] counts with the step property; one token per wire behaves like §5 renaming",
		Cols:  []string{"w", "depth", "tokens", "stepOK", "values1..T", "ranksTight"},
	}
	shapes := []struct{ w, k, each int }{{4, 4, 3}, {8, 6, 4}, {16, 8, 4}}
	if cfg.Quick {
		shapes = shapes[:2]
	}
	for _, sh := range shapes {
		stepOK, valsOK, ranksOK := true, true, true
		depth := 0
		// Counting mode: concurrent tokens, step property + values.
		var vals, counts []uint64
		var n *countnet.Network
		countSW := newSweep(randomAdv, func(mem shmem.Mem) (func(shmem.Proc), func()) {
			n = countnet.NewBitonic(mem, sh.w)
			done := mem.NewCASReg(0)
			return func(p shmem.Proc) {
					for i := 0; i < sh.each; i++ {
						vals = append(vals, n.Next(p)) // serialized by the simulator
					}
					for {
						d := done.Read(p)
						if done.CompareAndSwap(p, d, d+1) {
							if int(d+1) == sh.k {
								counts = n.ExitCounts(p)
							}
							break
						}
					}
				}, func() {
					n.Reset()
					shmem.Restore(done, 0)
				}
		})
		// Renaming mode: one token per wire → tight ranks.
		ranks := make([]uint64, sh.k)
		var n2 *countnet.Network
		rankSW := newSweep(randomAdv, func(mem shmem.Mem) (func(shmem.Proc), func()) {
			n2 = countnet.NewBitonic(mem, sh.w)
			return func(p shmem.Proc) {
				r, _ := n2.Traverse(p, p.ID()*sh.w/sh.k)
				ranks[p.ID()] = uint64(r) + 1
			}, n2.Reset
		})
		for seed := 0; seed < cfg.Seeds; seed++ {
			vals, counts = vals[:0], nil
			countSW.run(uint64(seed), sh.k)
			depth = n.Depth()
			total := uint64(sh.k * sh.each)
			var sum uint64
			for i, c := range counts {
				sum += c
				if i > 0 && counts[i-1] < c {
					stepOK = false
				}
			}
			if sum != total || counts[0]-counts[len(counts)-1] > 1 {
				stepOK = false
			}
			seen := map[uint64]bool{}
			for _, v := range vals {
				if v < 1 || v > total || seen[v] {
					valsOK = false
				}
				seen[v] = true
			}

			rankSW.run(uint64(seed), sh.k)
			if core.CheckUniqueTight(ranks) != nil {
				ranksOK = false
			}
		}
		t.AddRow(d(sh.w), d(depth), d(sh.k*sh.each),
			fmt.Sprintf("%v", stepOK), fmt.Sprintf("%v", valsOK), fmt.Sprintf("%v", ranksOK))
	}
	t.Notes = append(t.Notes,
		"the paper uses sorting networks (TAS comparators) rather than counting networks (balancers): "+
			"balancers are multi-shot and balance load; TAS comparators are one-shot and assign names")
	return t
}
