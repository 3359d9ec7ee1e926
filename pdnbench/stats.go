package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile (a
// p95 needs about 200 samples, a p99 about 1000). With fewer, the
// percentile is a guess about samples that were never taken.
const minBeyond = 10

// percentile is one order statistic together with the sample count it was
// taken from, so a reader can judge how much the tail rests on.
type percentile struct {
	Value float64
	N     int
}

// quantile returns the q-quantile (0 < q < 1) of v by linear interpolation
// between order statistics, refusing when fewer than minBeyond samples lie
// above it. The median of a single sample is allowed.
func quantile(v []float64, q float64) (percentile, error) {
	n := len(v)
	if n == 0 {
		return percentile{}, fmt.Errorf("quantile %.3g of no samples", q)
	}
	if q <= 0 || q >= 1 {
		return percentile{}, fmt.Errorf("quantile %.3g outside (0, 1)", q)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if beyond := n - 1 - lo; q > 0.5 && beyond < minBeyond {
		return percentile{}, fmt.Errorf("p%g of %d samples has %d beyond it, needs %d",
			100*q, n, beyond, minBeyond)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	hi := min(lo+1, n-1)
	frac := pos - float64(lo)
	return percentile{Value: s[lo] + frac*(s[hi]-s[lo]), N: n}, nil
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// mean is the arithmetic mean; 0 for no samples.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// median is the 0.5-quantile; 0 for no samples.
func median(v []float64) float64 {
	p, err := quantile(v, 0.5)
	if err != nil {
		return 0
	}
	return p.Value
}

// quartiles returns the first quartile, median and third quartile of v by
// the arithmetic of Python's statistics.quantiles(v, n=4) (its default
// "exclusive" method, clamping and extrapolation included), so the spreads
// printed here match the ones computed from the result lines elsewhere.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}
