package main

import (
	"math"

	"repro/internal/rng"
)

// zipf draws keys in [0, n) with P(i) ∝ 1/(i+1)^theta by inverse CDF over a
// table shared read-only by the generators (the load package's sampler is
// internal to its scenarios).
type zipf struct{ cum []float64 }

func newZipf(n int, theta float64) *zipf {
	cum := make([]float64, n)
	var total float64
	for i := range cum {
		total += math.Pow(float64(i+1), -theta)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &zipf{cum: cum}
}

func (z *zipf) draw(r *rng.SplitMix64) uint64 {
	u := r.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint64(lo)
}

// pickOp draws an op kind with weights rename 4 : inc 3 : read 3.
func pickOp(r *rng.SplitMix64) int {
	switch v := r.Uint64n(10); {
	case v < 4:
		return opRename
	case v < 7:
		return opInc
	}
	return opRead
}
