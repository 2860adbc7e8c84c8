package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported (choosing-metrics guide, section 1).
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond returns how many of n samples lie strictly beyond the q-quantile
// under the nearest-rank rule.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// supported reports whether the q-quantile of n samples has at least
// minBeyond samples beyond it.
func supported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// median returns the median of xs (mean of the middle pair for even n).
// It does not modify xs and returns 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// windowStat is one latency statistic summarised across measurement
// windows: the median of the per-window values with their min–max spread.
type windowStat struct {
	Median, Min, Max float64
	// Samples is the smallest per-window sample count, the one that decides
	// whether the percentile is supported.
	Samples int
	// Supported is false when some window had fewer than minBeyond samples
	// beyond the percentile.
	Supported bool
}

// acrossWindows computes the q-quantile of every window (each a slice of
// latencies, any order) and summarises them. Failed operations are passed
// in as +Inf samples so that they count as missing any latency limit.
func acrossWindows(windows [][]float64, q float64) windowStat {
	st := windowStat{Supported: true, Min: math.Inf(1), Max: math.Inf(-1), Samples: math.MaxInt}
	var per []float64
	for _, w := range windows {
		if len(w) == 0 {
			st.Samples = 0
			st.Supported = false
			continue
		}
		s := append([]float64(nil), w...)
		sort.Float64s(s)
		v := percentile(s, q)
		per = append(per, v)
		st.Min = math.Min(st.Min, v)
		st.Max = math.Max(st.Max, v)
		if len(s) < st.Samples {
			st.Samples = len(s)
		}
		if !supported(len(s), q) {
			st.Supported = false
		}
	}
	if len(per) == 0 {
		return windowStat{}
	}
	st.Median = median(per)
	return st
}

// relIQR returns the distance between the first and third quartile of xs
// as a share of their median, with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the exclusive method), which is what the
// benchmark contract uses to judge run-to-run spread.
func relIQR(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quart := func(k int) float64 {
		// position k·(n+1)/4 in 1-based ranks, linearly interpolated
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quart(3) - quart(1)) / math.Abs(med)
}
