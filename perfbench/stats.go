package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p90 from fewer than 100 samples, or a p50 from fewer than 20, is refused
// rather than reported from a handful of points.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses, with an error, when fewer than minBeyond samples lie above the
// chosen rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", 100*q)
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if beyond := n - 1 - i; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[i], nil
}

// median is the plain middle value (mean of the two middles for an even
// count), for the few repeated set-ups of one run, where the percentile
// guard would refuse.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// ratio is a share reported together with its base, so a reader can tell
// 0 of 0 from 0 of 1000.
type ratio struct {
	Num  float64 `json:"num"`
	Base float64 `json:"base"`
}

// value is Num/Base, or 0 with ok=false when the base is empty.
func (r ratio) value() (v float64, ok bool) {
	if r.Base == 0 {
		return 0, false
	}
	return r.Num / r.Base, true
}

// ms, us and secs convert durations to the float units the metrics use.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
