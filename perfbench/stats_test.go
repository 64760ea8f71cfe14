package main

import (
	"math"
	"testing"
	"time"
)

// TestTailPercentile pins the rule that picks the highest percentile with
// at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // median rank 10 leaves 9 beyond
		{20, 50},   // median rank 10 leaves 10 beyond
		{39, 50},   // p75 rank 30 leaves 9
		{40, 75},   // p75 rank 30 leaves 10; p90 rank 36 leaves 4
		{100, 90},  // p90 rank 90 leaves 10; p95 rank 95 leaves 5
		{199, 90},  // p95 rank 190 leaves 9
		{200, 95},  // p95 rank 190 leaves 10
		{999, 95},  // p99 rank 990 leaves 9
		{1000, 99}, // p99 rank 990 leaves 10; p99.9 rank 999 leaves 1
		{9999, 99}, // p99.9 rank 9990 leaves 9
		{10000, 99.9},
		{1 << 20, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestRankExact guards the per-mille arithmetic: in floating point
// 99.9/100×10000 is 9990.000000000002, which a ceiling would turn into
// 9991.
func TestRankExact(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want int
	}{
		{99.9, 10000, 9990},
		{99.9, 1000, 999},
		{99.9, 5000, 4995},
		{99, 1000, 990},
		{50, 1, 1},
		{50, 3, 2},
		{99, 1, 1},
		{0, 5, 1},
	} {
		if got := rank(c.p, c.n); got != c.want {
			t.Errorf("rank(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestSummarizeCapsTheTailAtP99(t *testing.T) {
	ms := make([]float64, 20000)
	for i := range ms {
		ms[i] = float64(len(ms) - i) // descending: summarize must sort
	}
	s := summarize(ms)
	if s.N != 20000 || s.TailPct != 99 {
		t.Fatalf("summary %+v, want n 20000 and the tail at p99, not the supported p99.9", s)
	}
	if s.P50 != 10000 || s.Tail != 19800 {
		t.Fatalf("p50 %v p99 %v, want 10000 and 19800", s.P50, s.Tail)
	}
	small := summarize([]float64{3, 1, 2, 5, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21})
	if small.TailPct != 50 || small.Tail != 11 {
		t.Fatalf("21 samples: tail p%v = %v, want the median 11", small.TailPct, small.Tail)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median %v, want 0", got)
	}
}

// TestOutsideMicros pins the serve_us subtraction: client latency in
// nanoseconds minus the handler's whole microseconds.
func TestOutsideMicros(t *testing.T) {
	for _, c := range []struct {
		lat     time.Duration
		serveUS int64
		want    float64
	}{
		{2500 * time.Microsecond, 1000, 1500},
		{1234567 * time.Nanosecond, 1000, 234.567},
		{999 * time.Nanosecond, 0, 0.999},
		// The handler truncates to whole microseconds, so a round trip the
		// handler fills entirely leaves only the truncated fraction.
		{1000999 * time.Nanosecond, 1000, 0.999},
	} {
		if got := outsideMicros(c.lat, c.serveUS); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("outsideMicros(%v, %d) = %v, want %v", c.lat, c.serveUS, got, c.want)
		}
	}
}

// TestWindowRates pins the windowed rates: equal windows from start to
// end, weights summed per second, an event at end in the last window and
// events outside the span dropped.
func TestWindowRates(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	ends := []time.Time{at(-1), at(0), at(100), at(499), at(500), at(1999), at(2000), at(2001)}
	weights := []float64{100, 1, 2, 4, 8, 16, 32, 100}
	got := windowRates(start, at(2000), 4, ends, weights)
	// Windows of 0.5 s: [0,500) holds 1+2+4, [500,1000) 8, [1500,2000] 16+32.
	want := []float64{14, 16, 0, 96}
	if len(got) != len(want) {
		t.Fatalf("%d windows, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("window %d: %v per second, want %v", i, got[i], want[i])
		}
	}
	// Over whole windows the rates average to the whole span's rate.
	var sum float64
	for _, r := range got {
		sum += r
	}
	if avg := sum / 4; math.Abs(avg-63.0/2) > 1e-9 {
		t.Errorf("mean window rate %v, want %v", avg, 63.0/2)
	}
	if got := windowRates(start, start, 3, ends, weights); got[0] != 0 || len(got) != 3 {
		t.Errorf("empty span: %v, want 3 zero windows", got)
	}
}
