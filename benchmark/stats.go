package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middles for an even
// count), or 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample, or 0 when it is empty.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// relWorse is how much worse b reads than a, as a share of a: positive when
// b moved in the metric's bad direction.
func relWorse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}
