package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a timing may be reported at, highest
// first. tailPercentile picks the first one the sample supports.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile: fewer, and the percentile is one or two unlucky requests.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p in n sorted
// samples. It counts in per-mille integers, because in floating point
// 99.9/100×1000 exceeds 999 and would push the rank one sample too far.
func rank(p float64, n int) int {
	pm := int(math.Round(p * 10))
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest percentile of tailLadder with at least
// minBeyond of n samples beyond it, or 0 when not even the median has.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of sorted samples
// (0 for an empty sample).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// median sorts xs in place and returns its median (the mean of the two
// middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// latencySummary is a timing sample reduced to what the report prints: the
// median, the tail at the highest percentile the sample supports (capped
// at p99), and the count.
type latencySummary struct {
	N       int
	P50     float64 // ms
	Tail    float64 // ms, at TailPct
	TailPct float64
}

// summarize reduces latencies (ms) to a latencySummary; it sorts ms.
func summarize(ms []float64) latencySummary {
	sort.Float64s(ms)
	s := latencySummary{N: len(ms), P50: percentile(ms, 50)}
	s.TailPct = math.Min(tailPercentile(len(ms)), 99)
	s.Tail = percentile(ms, s.TailPct)
	return s
}

// outsideMicros is the part of a client-observed round trip that the
// server's own handler timer does not cover: request and response transfer,
// framing and, through a router, the routing hop. serveUS is the response's
// serve_us, which the handler truncates to whole microseconds.
func outsideMicros(latency time.Duration, serveUS int64) float64 {
	return float64(latency.Nanoseconds())/1e3 - float64(serveUS)
}

// windowRates cuts the time from start to end into n equal windows and
// returns, for each window, the summed weight of the events that end in it
// per second. ends and weights are aligned; an event at end falls in the
// last window, and events outside [start, end] are ignored.
func windowRates(start, end time.Time, n int, ends []time.Time, weights []float64) []float64 {
	sums := make([]float64, n)
	span := end.Sub(start)
	if span <= 0 {
		return sums
	}
	for i, e := range ends {
		off := e.Sub(start)
		if off < 0 || off > span {
			continue
		}
		sums[min(n-1, int(int64(off)*int64(n)/int64(span)))] += weights[i]
	}
	for k := range sums {
		sums[k] /= span.Seconds() / float64(n)
	}
	return sums
}
