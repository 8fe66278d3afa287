package main

import (
	"math"
	"sort"
	"time"
)

// samples holds raw latencies in ns, so percentiles are exact.
type samples []uint32

func (s *samples) add(ns int64) {
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	*s = append(*s, uint32(ns))
}

// percentile returns the nearest-rank p-th percentile in ns, and false
// when there are no samples. It sorts s in place.
func (s samples) percentile(p float64) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return float64(s[rank-1]), true
}

// windowLen is the length of the slices a measured phase is cut into
// (rounded so that a whole number of them fills the phase).
// Every end-to-end figure is the median over the windows of the
// per-window figure, so a single stalled second on a shared machine (a
// GC cycle, a noisy neighbour) moves it no more than any other window.
const windowLen = time.Second

// window is what one slice of a phase measured, by op start time.
type window struct {
	ops         int64
	read, write samples
}

func numWindows(d time.Duration) int {
	if n := int((d + windowLen/2) / windowLen); n > 1 {
		return n
	}
	return 1
}

// medianOver returns the median of f over the windows where f is
// defined, 0 when it is defined in none.
func medianOver(wins []window, f func(*window) (float64, bool)) float64 {
	var xs []float64
	for i := range wins {
		if v, ok := f(&wins[i]); ok {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
