package sortnet

import (
	"fmt"
	"sync"
)

// Part labels the region of the adaptive construction a comparator lives in.
type Part uint8

// Comparator regions: the leading base network A, the trailing base network
// C (Fig. 2 of the paper), or the innermost width-2 network S_0.
const (
	PartA Part = iota
	PartC
	PartLeaf
)

// Comp identifies a single comparator of the adaptive network. Comparators
// are shared objects in a renaming network, so the identity must be stable
// across all processes' walks; (Level, Part, Stage, Low) is canonical.
type Comp struct {
	Level int
	Part  Part
	Stage int
	Low   uint64 // global index of the comparator's upper (min) wire
}

// Key packs the comparator identity into one word for use as a map key on
// the renaming hot path (hashing a uint64 is several times cheaper than
// hashing the 32-byte struct). Bits 61–63 hold Level (< 8; width 2^32
// after five), bits 59–60 Part, bits 40–58 Stage (< 2^19; the deepest
// base has 1024 stages) and bits 0–39 Low (< 2^32). The packing is
// injective on the network's comparators, and CompOfKey inverts it.
func (c Comp) Key() uint64 {
	return uint64(c.Level)<<61 | uint64(c.Part)<<59 | uint64(c.Stage)<<40 | c.Low
}

// CompOfKey decodes a key produced by Comp.Key.
func CompOfKey(key uint64) Comp {
	return Comp{
		Level: int(key >> 61),
		Part:  Part(key >> 59 & 3),
		Stage: int(key >> 40 & (1<<19 - 1)),
		Low:   key & (1<<40 - 1),
	}
}

// Base selects the sorting network used for the A and C layers of every
// sandwich level.
type Base uint8

// Available bases. Both have depth exponent c = 2; AKS (c = 1) is
// impractical, as the paper notes.
const (
	// BaseOEM is Batcher's odd-even mergesort (the default).
	BaseOEM Base = iota
	// BaseBalanced is the Dowd–Perl–Rudolph–Saks balanced network.
	BaseBalanced
)

func (b Base) String() string {
	switch b {
	case BaseOEM:
		return "oem"
	case BaseBalanced:
		return "balanced"
	default:
		return "base?"
	}
}

func (b Base) make(n uint64) Walkable {
	switch b {
	case BaseOEM:
		return NewOEM(n)
	case BaseBalanced:
		return NewBalanced(n)
	default:
		panic("sortnet: unknown base")
	}
}

// aLevel is one stage of the recursive construction: S_i is S_{i-1}
// sandwiched (per Lemma 2) between two base sorting networks.
type aLevel struct {
	width uint64   // w_i
	ell   uint64   // ℓ_i = w_{i-1}/2
	base  Walkable // A_i and C_i: base sorter of width w_i − ℓ_i
}

// Adaptive is the unbounded-width sorting network S_L of Section 6.1,
// instantiated with Batcher odd-even mergesort as the base sorter (the
// paper's "constructible" choice, exponent c = 2 in Theorem 2; AKS would
// give c = 1 but is impractical, as the paper notes).
//
// Widths square at every level: w_0 = 2, w_{i+1} = w_i², so five levels
// already span 2^32 wires. Values entering on wire n and leaving on wire m
// traverse O(log² max(n,m)) comparators (Theorem 2) — the walk is lazy, so
// no part of the network is ever materialized.
type Adaptive struct {
	levels []aLevel
}

// MaxAdaptiveWire is the largest entry wire supported (width 2^32 at level
// five; squaring once more would overflow uint64).
const MaxAdaptiveWire = uint64(1)<<32 - 1

// NewAdaptive returns the construction truncated to the smallest level whose
// width exceeds maxWire, with Batcher's network as base. Theorem 2
// guarantees each S_i is itself a sorting network, so the truncation is
// sound.
func NewAdaptive(maxWire uint64) *Adaptive {
	return NewAdaptiveWithBase(maxWire, BaseOEM)
}

var sharedAdaptive = [2]func() *Adaptive{
	sync.OnceValue(func() *Adaptive { return NewAdaptiveWithBase(MaxAdaptiveWire, BaseOEM) }),
	sync.OnceValue(func() *Adaptive { return NewAdaptiveWithBase(MaxAdaptiveWire, BaseBalanced) }),
}

// SharedAdaptive returns a process-wide shared instance of the full-width
// (2^32-wire) adaptive network for the given base. An Adaptive is immutable
// after construction and its cursor (First/Next, and Walk over them) keeps
// no state in the network, so one instance serves any number of concurrent
// renamers; sharing it removes the dominant per-construction allocation
// (the per-level base networks). Renamers cache the cursor's answers per
// comparator, so on their hot path the network is consulted only the first
// time a walk leaves a comparator through a given wire.
func SharedAdaptive(base Base) *Adaptive {
	return sharedAdaptive[base]()
}

// NewAdaptiveWithBase is NewAdaptive with an explicit base network choice
// (the ablation knob of BENCHMARKS.md).
func NewAdaptiveWithBase(maxWire uint64, base Base) *Adaptive {
	if maxWire > MaxAdaptiveWire {
		panic(fmt.Sprintf("sortnet: adaptive network supports wires < 2^32, got %d", maxWire))
	}
	ad := &Adaptive{levels: []aLevel{{width: 2}}}
	for ad.Width() <= maxWire {
		prev := ad.levels[len(ad.levels)-1].width
		ell := prev / 2
		width := prev * prev
		ad.levels = append(ad.levels, aLevel{
			width: width,
			ell:   ell,
			base:  base.make(width - ell),
		})
	}
	return ad
}

// Width returns the width w_L of the outermost level.
func (ad *Adaptive) Width() uint64 { return ad.levels[len(ad.levels)-1].width }

// Levels returns the number of sandwich levels (excluding S_0).
func (ad *Adaptive) Levels() int { return len(ad.levels) - 1 }

// Depth returns the total comparator depth d_L of the outermost level:
// d_0 = 1, d_i = d_{i-1} + 2·depth(base_i).
func (ad *Adaptive) Depth() int {
	d := 1
	for _, l := range ad.levels[1:] {
		d += 2 * l.base.NumStages()
	}
	return d
}

// DepthOfLevel returns d_i, the comparator depth of sub-network S_i. By
// Lemma 3 a small value entering S_i never leaves it, so d_i bounds its
// traversal (Theorem 2).
func (ad *Adaptive) DepthOfLevel(i int) int {
	d := 1
	for _, l := range ad.levels[1 : i+1] {
		d += 2 * l.base.NumStages()
	}
	return d
}

// LevelOfWire returns the smallest i such that wire < w_i (the innermost
// sub-network the wire is an input of).
func (ad *Adaptive) LevelOfWire(wire uint64) int {
	for i, l := range ad.levels {
		if wire < l.width {
			return i
		}
	}
	return len(ad.levels) - 1
}

// Walk routes a value entering on global wire in through the network.
// decide is invoked for every comparator the value meets, with the global
// up (min) and down (max) wires; it returns true to take the up wire.
// Walk returns the output wire and the number of comparators met. It is
// a loop over the First/Next cursor, the package's one traversal.
func (ad *Adaptive) Walk(in uint64, decide func(c Comp, up, down uint64) bool) (out uint64, met int) {
	out = in
	c, up, down, ok := ad.First(in)
	for ok {
		met++
		if decide(c, up, down) {
			out = up
		} else {
			out = down
		}
		c, up, down, ok = ad.Next(c, out)
	}
	return out, met
}

// First returns the first comparator a value entering on global wire in
// meets, with its up and down wires, or ok == false if it meets none.
func (ad *Adaptive) First(in uint64) (c Comp, up, down uint64, ok bool) {
	if in >= ad.Width() {
		panic(fmt.Sprintf("sortnet: entry wire %d out of range for width %d", in, ad.Width()))
	}
	return ad.seek(len(ad.levels)-1, PartA, 0, in)
}

// Next returns the comparator met after leaving c on global wire w (one
// of c's two wires), or ok == false if the walk leaves the network there.
// The continuation depends only on (c, w): the recursion stack of
// S_L = A_L · S_{L−1} · C_L is implied by c.Level, since every enclosing
// level still owes its C part.
func (ad *Adaptive) Next(c Comp, w uint64) (next Comp, up, down uint64, ok bool) {
	return ad.seek(c.Level, c.Part, c.Stage+1, w)
}

// seek resumes the walk of wire w at level lvl, in part (PartA: entering
// S_lvl, or inside A_lvl from stage s; PartC: inside C_lvl from stage s;
// PartLeaf: past S_0's comparator) and returns the first comparator met
// from there on.
func (ad *Adaptive) seek(lvl int, part Part, s int, w uint64) (Comp, uint64, uint64, bool) {
	top := len(ad.levels) - 1
	for {
		if lvl == 0 {
			if part == PartA && w <= 1 {
				return Comp{Level: 0, Part: PartLeaf}, 0, 1, true
			}
		} else {
			l := &ad.levels[lvl]
			if part == PartA {
				if w >= l.ell {
					if c, up, down, ok := ad.scan(lvl, PartA, s, w); ok {
						return c, up, down, true
					}
				}
				if w < ad.levels[lvl-1].width {
					lvl, s = lvl-1, 0 // descend into S_{lvl−1}
					continue
				}
				s = 0 // A_lvl is done and S_{lvl−1} idle: on to C_lvl
			}
			if w >= l.ell {
				if c, up, down, ok := ad.scan(lvl, PartC, s, w); ok {
					return c, up, down, true
				}
			}
		}
		// S_lvl is done: ascend into the enclosing level's C part.
		if lvl == top {
			return Comp{}, 0, 0, false
		}
		lvl, part, s = lvl+1, PartC, 0
	}
}

// scan returns the first comparator of base part A_lvl or C_lvl touching
// global wire w at stage s or later.
func (ad *Adaptive) scan(lvl int, part Part, s int, w uint64) (Comp, uint64, uint64, bool) {
	l := &ad.levels[lvl]
	rel := w - l.ell
	for n := l.base.NumStages(); s < n; s++ {
		if a, b, ok := l.base.CompAt(s, rel); ok {
			up := a + l.ell
			return Comp{Level: lvl, Part: part, Stage: s, Low: up}, up, b + l.ell, true
		}
	}
	return Comp{}, 0, 0, false
}

// Flatten materializes S_L explicitly (small widths only), by composing the
// same base networks through the exhaustively-tested Sandwich. Flatten and
// Walk visit comparators in the same order, which the tests rely on.
func (ad *Adaptive) Flatten() *Network {
	net := &Network{W: 2, Stages: [][]Comparator{{{A: 0, B: 1}}}}
	for _, l := range ad.levels[1:] {
		if l.width > 1<<20 {
			panic("sortnet: Flatten width too large to materialize")
		}
		base := Materialize(l.base)
		net = Sandwich(base, net, base, int(l.ell))
	}
	return net
}
