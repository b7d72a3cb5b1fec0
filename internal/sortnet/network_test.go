package sortnet

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestInsertionSortsExhaustively(t *testing.T) {
	for n := 1; n <= 10; n++ {
		net := Insertion(n)
		if err := net.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if bad := net.VerifyZeroOne(); bad != nil {
			t.Fatalf("n=%d: fails on %v", n, bad)
		}
	}
}

func TestOddEvenTranspositionSortsExhaustively(t *testing.T) {
	for n := 1; n <= 12; n++ {
		net := OddEvenTransposition(n)
		if err := net.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if bad := net.VerifyZeroOne(); bad != nil {
			t.Fatalf("n=%d: fails on %v", n, bad)
		}
		if net.Depth() > n {
			t.Fatalf("n=%d: depth %d exceeds n", n, net.Depth())
		}
	}
}

func TestOEMSortsExhaustively(t *testing.T) {
	for n := 1; n <= 18; n++ {
		net := OddEvenMergeNet(n)
		if err := net.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if bad := net.VerifyZeroOne(); bad != nil {
			t.Fatalf("n=%d: fails on %v", n, bad)
		}
	}
}

func TestOEMDepth(t *testing.T) {
	// Depth of Batcher's network on 2^g wires is g(g+1)/2.
	for g := 1; g <= 10; g++ {
		n := uint64(1) << g
		o := NewOEM(n)
		want := g * (g + 1) / 2
		if o.NumStages() != want {
			t.Errorf("width %d: depth %d, want %d", n, o.NumStages(), want)
		}
	}
}

// TestOEMCompAtConsistency checks the lazy CompAt view against itself: both
// endpoints of a reported comparator must agree, stages must be disjoint,
// and the materialized network must validate.
func TestOEMCompAtConsistency(t *testing.T) {
	for _, n := range []uint64{2, 3, 5, 8, 13, 16, 31, 32, 100} {
		o := NewOEM(n)
		for s := 0; s < o.NumStages(); s++ {
			for w := uint64(0); w < n; w++ {
				a, b, ok := o.CompAt(s, w)
				if !ok {
					continue
				}
				if w != a && w != b {
					t.Fatalf("n=%d s=%d w=%d: comparator (%d,%d) does not touch wire", n, s, w, a, b)
				}
				if a >= b || b >= n {
					t.Fatalf("n=%d s=%d: bad comparator (%d,%d)", n, s, a, b)
				}
				a2, b2, ok2 := o.CompAt(s, a+b-w) // the partner wire
				if !ok2 || a2 != a || b2 != b {
					t.Fatalf("n=%d s=%d: endpoints disagree: (%d,%d) vs (%d,%d,%v)", n, s, a, b, a2, b2, ok2)
				}
			}
		}
		if err := Materialize(o).Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestOEMSortsRandomPermutations is the property-based check on widths too
// large for the exhaustive zero-one sweep.
func TestOEMSortsRandomPermutations(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%200 + 1
		net := OddEvenMergeNet(n)
		r := rand.New(rand.NewSource(seed))
		vals := r.Perm(n)
		return net.Sorts(vals)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSandwichIsSortingNetwork(t *testing.T) {
	// Exhaustive zero-one over a grid of (m, k, ell) shapes, per Lemma 2.
	cases := []struct{ m, k, ell int }{
		{3, 2, 1}, {4, 4, 2}, {6, 4, 1}, {6, 4, 2}, {8, 6, 3},
		{10, 6, 2}, {14, 4, 2}, {7, 5, 2}, {9, 3, 1},
	}
	for _, tc := range cases {
		a := OddEvenMergeNet(tc.m)
		b := OddEvenMergeNet(tc.k)
		c := OddEvenMergeNet(tc.m)
		net := Sandwich(a, b, c, tc.ell)
		if net.W != tc.ell+tc.m {
			t.Fatalf("m=%d k=%d ell=%d: width %d", tc.m, tc.k, tc.ell, net.W)
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("m=%d k=%d ell=%d: %v", tc.m, tc.k, tc.ell, err)
		}
		if bad := net.VerifyZeroOne(); bad != nil {
			t.Fatalf("m=%d k=%d ell=%d: fails on %v", tc.m, tc.k, tc.ell, bad)
		}
	}
}

func TestSandwichRejectsBadShapes(t *testing.T) {
	a := OddEvenMergeNet(4)
	b := OddEvenMergeNet(4)
	for _, ell := range []int{3, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ell=%d: expected panic", ell)
				}
			}()
			Sandwich(a, b, a, ell)
		}()
	}
}

func TestAdaptiveLevels(t *testing.T) {
	ad := NewAdaptive(255)
	if got := ad.Width(); got != 256 {
		t.Fatalf("width = %d, want 256", got)
	}
	if got := ad.Levels(); got != 3 {
		t.Fatalf("levels = %d, want 3", got)
	}
	// Widths square: 2, 4, 16, 256.
	wantW := []uint64{2, 4, 16, 256}
	for i, w := range wantW {
		if ad.levels[i].width != w {
			t.Errorf("level %d width = %d, want %d", i, ad.levels[i].width, w)
		}
	}
	// Depth is monotone in level and polylogarithmic overall.
	for i := 1; i <= ad.Levels(); i++ {
		if ad.DepthOfLevel(i) <= ad.DepthOfLevel(i-1) {
			t.Errorf("depth not monotone at level %d", i)
		}
	}
}

func TestAdaptiveFlattenSorts(t *testing.T) {
	// Width 4 and 16: exhaustive zero-one. Width 256: sampled.
	for _, maxWire := range []uint64{3, 15} {
		ad := NewAdaptive(maxWire)
		net := ad.Flatten()
		if err := net.Validate(); err != nil {
			t.Fatalf("maxWire=%d: %v", maxWire, err)
		}
		if bad := net.VerifyZeroOne(); bad != nil {
			t.Fatalf("maxWire=%d: fails on %v", maxWire, bad)
		}
	}
	ad := NewAdaptive(255)
	net := ad.Flatten()
	r := rand.New(rand.NewSource(7))
	if bad := net.SampleZeroOne(300, r.Uint64); bad != nil {
		t.Fatalf("width 256 sandwich fails on sampled input %v", bad)
	}
}

// TestAdaptiveWalkMatchesFlatten is the keystone test: the lazy Walk must
// route a tagged token exactly as the materialized network does, for every
// entry wire, over random 0-1 value assignments, meeting exactly the
// comparators the token meets in the materialized network, in stage order.
// Width 256 reaches level 3, whose A/C parts are base networks on 248
// wires, so every descend into and ascend out of S_0..S_2 is exercised;
// both bases are covered.
func TestAdaptiveWalkMatchesFlatten(t *testing.T) {
	for _, tc := range []struct {
		base    Base
		maxWire uint64
		trials  int
	}{
		{BaseOEM, 15, 200},
		{BaseBalanced, 15, 200},
		{BaseOEM, 255, 40},
		{BaseBalanced, 255, 40},
	} {
		ad := NewAdaptiveWithBase(tc.maxWire, tc.base)
		net := ad.Flatten()
		stageOf := flattenStageIndex(ad)
		r := rand.New(rand.NewSource(42))
		for trial := 0; trial < tc.trials; trial++ {
			vals := make([]int, net.W)
			for i := range vals {
				vals[i] = r.Intn(2)
			}
			final, evolution, wantMet := routeTokens(net, vals)
			for entry := 0; entry < net.W; entry++ {
				last := -1
				gotOut, met := ad.Walk(uint64(entry), func(c Comp, up, down uint64) bool {
					g, ok := stageOf[compKey{c.Level, c.Part, c.Stage}]
					if !ok {
						t.Fatalf("%v width %d: walk met comparator %+v not present in flatten", tc.base, net.W, c)
					}
					if g <= last {
						t.Fatalf("%v width %d entry %d: comparator %+v at stage %d after stage %d", tc.base, net.W, entry, c, g, last)
					}
					last = g
					pre := evolution[g]
					// The token must actually be on one of the comparator wires.
					my, other := pre[up], pre[down]
					if my != entry && other != entry {
						t.Fatalf("%v width %d trial %d entry %d: token not at comparator %+v", tc.base, net.W, trial, entry, c)
					}
					valUp := valueAt(vals, pre, up)
					valDown := valueAt(vals, pre, down)
					if my == entry {
						return valUp <= valDown // ties stay put: token keeps the up wire
					}
					return valDown < valUp // token on the down wire moves up only if strictly smaller
				})
				if int(gotOut) != final[entry] {
					t.Fatalf("%v width %d trial %d entry %d: walk output %d, reference %d", tc.base, net.W, trial, entry, gotOut, final[entry])
				}
				if met != wantMet[entry] {
					t.Fatalf("%v width %d trial %d entry %d: walk met %d comparators, reference %d", tc.base, net.W, trial, entry, met, wantMet[entry])
				}
			}
		}
	}
}

// TestCompKeyRoundTrip pins the Comp.Key packing on the network's
// boundary comparators: the leaf, the last stage of each level-5 base,
// and the widest Low. Renamers identify comparator objects by key, so a
// collision would silently alias two comparators.
func TestCompKeyRoundTrip(t *testing.T) {
	oem := SharedAdaptive(BaseOEM)
	bal := SharedAdaptive(BaseBalanced)
	if d := oem.levels[5].base.NumStages(); d != 528 {
		t.Fatalf("level-5 OEM depth %d, want 528", d)
	}
	lastOEM, lastBal := 527, bal.levels[5].base.NumStages()-1
	comps := []Comp{{Level: 0, Part: PartLeaf}}
	for _, part := range []Part{PartA, PartC} {
		for _, stage := range []int{0, lastOEM, lastBal} {
			for _, low := range []uint64{0, 1, 1 << 15, MaxAdaptiveWire - 1, MaxAdaptiveWire} {
				comps = append(comps, Comp{Level: 5, Part: part, Stage: stage, Low: low})
			}
		}
		for lvl := 1; lvl < 5; lvl++ {
			comps = append(comps, Comp{Level: lvl, Part: part, Stage: 0, Low: 1})
		}
	}
	seen := make(map[uint64]Comp, len(comps))
	for _, c := range comps {
		k := c.Key()
		if got := CompOfKey(k); got != c {
			t.Fatalf("CompOfKey(%#x) = %+v, want %+v", k, got, c)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("key %#x shared by %+v and %+v", k, prev, c)
		}
		seen[k] = c
	}
	// The last comparator each walk meets on the widest wire decodes too.
	for _, ad := range []*Adaptive{oem, bal} {
		ad.Walk(MaxAdaptiveWire, func(c Comp, _, _ uint64) bool {
			if got := CompOfKey(c.Key()); got != c {
				t.Fatalf("CompOfKey(%+v.Key()) = %+v", c, got)
			}
			return false
		})
	}
}

type compKey struct {
	level int
	part  Part
	stage int
}

// flattenStageIndex maps every (level, part, stage) of the adaptive
// construction to its global stage index in the Flatten ordering:
// recursively [A_L][S_{L-1}][C_L].
func flattenStageIndex(ad *Adaptive) map[compKey]int {
	idx := make(map[compKey]int)
	var rec func(lvl, off int) int
	rec = func(lvl, off int) int {
		if lvl == 0 {
			idx[compKey{0, PartLeaf, 0}] = off
			return off + 1
		}
		d := ad.levels[lvl].base.NumStages()
		for s := 0; s < d; s++ {
			idx[compKey{lvl, PartA, s}] = off + s
		}
		off = rec(lvl-1, off+d)
		for s := 0; s < d; s++ {
			idx[compKey{lvl, PartC, s}] = off + s
		}
		return off + d
	}
	rec(len(ad.levels)-1, 0)
	return idx
}

// routeTokens runs the explicit network over vals, tagging every wire's
// token with its original wire. It returns each token's final wire, the
// per-stage snapshots (evolution[g][w] = original wire of the token on wire
// w before stage g), and how many comparators each token met.
func routeTokens(net *Network, vals []int) (final []int, evolution [][]int, met []int) {
	w := net.W
	pos := make([]int, w) // pos[wire] = original index of token currently there
	cur := make([]int, w)
	met = make([]int, w)
	for i := 0; i < w; i++ {
		pos[i] = i
		cur[i] = vals[i]
	}
	evolution = make([][]int, 0, len(net.Stages))
	for _, stage := range net.Stages {
		snap := make([]int, w)
		copy(snap, pos)
		evolution = append(evolution, snap)
		for _, c := range stage {
			met[pos[c.A]]++
			met[pos[c.B]]++
			if cur[c.A] > cur[c.B] {
				cur[c.A], cur[c.B] = cur[c.B], cur[c.A]
				pos[c.A], pos[c.B] = pos[c.B], pos[c.A]
			}
		}
	}
	final = make([]int, w)
	for wire, orig := range pos {
		final[orig] = wire
	}
	return final, evolution, met
}

// valueAt returns the value carried by the token on the given wire in the
// given snapshot.
func valueAt(vals []int, snapshot []int, wire uint64) int {
	return vals[snapshot[wire]]
}

// TestAdaptiveTraversalBound checks Theorem 2's shape on value-consistent
// walks. A token that behaves as the global minimum (wins every comparator)
// entering on wire n < w_i/2 must, by Lemma 3, stay inside S_i, so it meets
// at most DepthOfLevel(i) comparators — O(log² n) overall. A token behaving
// as the global maximum is bounded by the full depth.
func TestAdaptiveTraversalBound(t *testing.T) {
	ad := NewAdaptive(1 << 20) // forces the 2^32-wide level
	alwaysUp := func(Comp, uint64, uint64) bool { return true }
	alwaysDown := func(Comp, uint64, uint64) bool { return false }

	// levelFor is Theorem 2's k' = the smallest level with wire < w_i/2.
	levelFor := func(wire uint64) int {
		for i := 1; i < len(ad.levels); i++ {
			if wire < ad.levels[i].width/2 {
				return i
			}
		}
		return len(ad.levels) - 1
	}
	for _, wire := range []uint64{0, 1, 3, 10, 100, 1000, 1 << 15, 1 << 20} {
		out, met := ad.Walk(wire, alwaysUp)
		if out != 0 {
			t.Errorf("wire %d: global-min token left on wire %d, want 0", wire, out)
		}
		if lim := ad.DepthOfLevel(levelFor(wire)); met > lim {
			t.Errorf("wire %d: min token met %d comparators > Theorem 2 bound %d", wire, met, lim)
		}
		if _, met := ad.Walk(wire, alwaysDown); met > ad.Depth() {
			t.Errorf("wire %d: max token met %d comparators > total depth %d", wire, met, ad.Depth())
		}
	}
	// The bound must grow slowly: a wire-0 walk must be exponentially
	// shorter than the full depth.
	_, met0 := ad.Walk(0, alwaysUp)
	if met0*10 > ad.Depth() {
		t.Errorf("wire 0 met %d comparators; expected far fewer than total depth %d", met0, ad.Depth())
	}
}

func TestConcat(t *testing.T) {
	a := OddEvenTransposition(4)
	b := OddEvenMergeNet(4)
	c := Concat(a, b)
	if c.Depth() != a.Depth()+b.Depth() || c.Size() != a.Size()+b.Size() {
		t.Fatalf("concat shape: depth %d size %d", c.Depth(), c.Size())
	}
	if bad := c.VerifyZeroOne(); bad != nil {
		t.Fatalf("sorting-then-sorting fails on %v", bad)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected width-mismatch panic")
		}
	}()
	Concat(a, OddEvenMergeNet(5))
}

func TestEmbed(t *testing.T) {
	n := OddEvenMergeNet(3)
	e := Embed(n, 6, 2)
	if e.W != 6 {
		t.Fatalf("embedded width %d", e.W)
	}
	for _, stage := range e.Stages {
		for _, c := range stage {
			if c.A < 2 || int(c.B) >= 5 {
				t.Fatalf("comparator (%d,%d) escaped the embedding window", c.A, c.B)
			}
		}
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected out-of-range panic")
		}
	}()
	Embed(n, 4, 2)
}

func TestDraw(t *testing.T) {
	out := Draw(OddEvenMergeNet(4))
	for _, want := range []string{"0 ", "3 ", "●", "│"} {
		if !strings.Contains(out, want) {
			t.Fatalf("drawing missing %q:\n%s", want, out)
		}
	}
	// One line per wire row plus gap rows.
	if lines := strings.Count(out, "\n"); lines != 2*4-1 {
		t.Fatalf("drawing has %d lines, want 7:\n%s", lines, out)
	}
	if got := Draw(&Network{W: 100}); !strings.Contains(got, "too wide") {
		t.Fatalf("wide network should refuse to draw: %q", got)
	}
}

func TestAdaptiveWalkRejectsOutOfRange(t *testing.T) {
	ad := NewAdaptive(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range wire")
		}
	}()
	ad.Walk(ad.Width(), func(Comp, uint64, uint64) bool { return true })
}
