package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a p99
// needs at least 1,000 samples, a p50 at least 20.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs,
// and whether the sample supports it — at least minTail samples strictly
// beyond the rank. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minTail
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into quarters, by the
// same rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match any Python tooling.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sortedCopy(xs)
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// schedule is an open-loop arrival schedule: request i is due at
// start + i*interval, whether or not earlier requests have finished.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// openLoopTiming accounts one open-loop request. Latency runs from when
// the request was due, not from when it was sent, so a stall that delays
// later sends is charged to every request it delayed; lag is how late the
// generator sent it.
func openLoopTiming(due, sent, done time.Time) (latency, lag time.Duration) {
	lag = sent.Sub(due)
	if lag < 0 {
		lag = 0
	}
	return done.Sub(due), lag
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
