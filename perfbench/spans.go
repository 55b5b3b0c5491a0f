package main

import (
	"math"
	"sort"
)

// span is one timed interval in nanoseconds since the run's base time.
type span struct {
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// covered returns how much of parent the union of children covers.
// Children may overlap each other, nest, or stick out of the parent; each
// instant of the parent counts at most once.
func covered(parent span, children []span) int64 {
	clipped := make([]span, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur span
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			total += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// selfTime is a layer's own time: its span minus the part its child spans
// cover.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(parent, children)
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// nearest rank; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tailPercentile returns the highest of the usual reporting percentiles
// that still has at least ten samples beyond it, or 0 when even the
// median has fewer.
func tailPercentile(n int) float64 {
	for _, bp := range []int{9999, 9990, 9900, 9000, 5000} { // basis points
		rank := (bp*n + 9999) / 10000
		if n-rank >= 10 {
			return float64(bp) / 100
		}
	}
	return 0
}

// sortedUs converts nanosecond samples to sorted microseconds.
func sortedUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}

// median of float samples; 0 for none.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}
