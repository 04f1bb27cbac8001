package main

import (
	"math"
	"sort"
)

// tailMin is how many samples must lie beyond a reported tail
// percentile for it to be more than an anecdote.
const tailMin = 10

// dist is a sorted sample set with the summary the benchmark prints.
type dist struct {
	sorted []float64
}

func newDist(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{sorted: s}
}

func (d dist) n() int { return len(d.sorted) }

// at returns the nearest-rank q-quantile (0 < q <= 1): the smallest
// sample with at least a q share of the samples at or below it.
func (d dist) at(q float64) float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sorted[rankOf(q, len(d.sorted))-1]
}

// rankOf is the 1-based nearest rank of quantile q among n samples.
func rankOf(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tail returns the highest whole percentile, from 50 to 99, that has at
// least tailMin samples beyond its nearest rank, with its value and the
// number of samples beyond it. ok is false when not even the median
// qualifies.
func (d dist) tail() (pct int, v float64, beyond int, ok bool) {
	n := len(d.sorted)
	for p := 99; p >= 50; p-- {
		r := rankOf(float64(p)/100, n)
		if n-r >= tailMin {
			return p, d.sorted[r-1], n - r, true
		}
	}
	return 0, 0, 0, false
}

func (d dist) mean() float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	var s float64
	for _, v := range d.sorted {
		s += v
	}
	return s / float64(len(d.sorted))
}

// median of a small set of repeated measurements (set-up times).
func median(vs []float64) float64 { return newDist(vs).at(0.5) }
