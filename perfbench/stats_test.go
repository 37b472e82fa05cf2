package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, ok := percentile(xs, 99)
	if v != 990 || !ok {
		t.Fatalf("p99 of 1..1000 = %v (supported %v), want 990 supported", v, ok)
	}
	if _, ok := percentile(xs[:999], 99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it, reported as supported")
	}
	v, ok = percentile(xs[:20], 50)
	if v != 10 || !ok {
		t.Fatalf("p50 of 1..20 = %v (supported %v), want 10 supported", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Fatal("empty sample reported as supported")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	// Reference values from Python: statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Fatalf("spread = %v, want 1", s)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	// root [0,100] with children a [10,40] and b [30,70] overlapping each
	// other, and c [80,90]; a has a grandchild [15,25].
	root := &node{name: "root", start: 0, end: 100, children: []*node{
		{name: "a", start: 10, end: 40, children: []*node{{name: "g", start: 15, end: 25}}},
		{name: "b", start: 30, end: 70},
		{name: "c", start: 80, end: 90},
	}}
	acc := map[string]int64{}
	selfTimes(root, acc)
	// Union of children = [10,70] + [80,90] = 70, so root self = 30.
	want := map[string]int64{"root": 30, "a": 20, "g": 10, "b": 40, "c": 10}
	for k, v := range want {
		if acc[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, acc[k], v)
		}
	}
}

func TestNestMakesSelfTimesSumToRoot(t *testing.T) {
	// A group-commit leader's trace: park covers the wal-append it led,
	// which covers the fsync, all recorded as siblings; one fsync span
	// overhangs its append by a microsecond of truncation.
	root := &node{name: "op", start: 0, end: 1000, children: []*node{
		{name: "stage", start: 100, end: 200},
		{name: "park", start: 210, end: 900},
		{name: "wal-append", start: 300, end: 800},
		{name: "fsync", start: 400, end: 801},
		{name: "checkpoint", start: 905, end: 990},
	}}
	nest(root)
	acc := map[string]int64{}
	total := selfTimes(root, acc)
	if total != 1000 {
		t.Fatalf("self times sum to %d, want the root's 1000 (%v)", total, acc)
	}
	want := map[string]int64{"op": 125, "stage": 100, "park": 190, "wal-append": 100, "fsync": 400, "checkpoint": 85}
	for k, v := range want {
		if acc[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, acc[k], v)
		}
	}
}

func TestOpenLoopDueTimeAccounting(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := schedule{start: t0, interval: 10 * time.Millisecond}
	// Request 0 stalls for 35ms on the only connection; requests 1..3 are
	// due at 10, 20, 30ms and go out as soon as it returns.
	done0 := t0.Add(35 * time.Millisecond)
	lat, lag := openLoopTiming(s.due(0), s.due(0), done0)
	if lat != 35*time.Millisecond || lag != 0 {
		t.Fatalf("request 0: latency %v lag %v", lat, lag)
	}
	sent := done0
	for i := 1; i <= 3; i++ {
		done := sent.Add(time.Millisecond)
		lat, lag := openLoopTiming(s.due(i), sent, done)
		wantLag := sent.Sub(s.due(i))
		if lag != wantLag || lat != wantLag+time.Millisecond {
			t.Errorf("request %d: latency %v lag %v, want %v and %v", i, lat, lag, wantLag+time.Millisecond, wantLag)
		}
		sent = done
	}
	// A request sent early never reports negative lag.
	if _, lag := openLoopTiming(s.due(5), s.due(4), s.due(5)); lag != 0 {
		t.Fatalf("early send lag = %v", lag)
	}
}

func TestWholePasses(t *testing.T) {
	// A zero-length run still makes its first pass, and no more.
	admit := wholePasses(3, 0)
	for j := 0; j < 3; j++ {
		if !admit(j) {
			t.Fatalf("operation %d of the first pass refused", j)
		}
	}
	if admit(3) || admit(4) {
		t.Fatal("second pass admitted past the run's end")
	}
	// A long run admits later passes whole.
	admit = wholePasses(3, time.Hour)
	for j := 0; j < 12; j++ {
		if !admit(j) {
			t.Fatalf("operation %d refused within the run", j)
		}
	}
}
