package main

import (
	"math"
	"testing"
)

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(i + 1) // 1..n
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	asc := seq(1000)
	for _, c := range []struct {
		p    int
		want float64
	}{{50, 500}, {90, 900}, {95, 950}, {99, 990}, {100, 1000}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("p%d of 1..1000 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(samples{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	if got := median(samples{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, want, p int
	}{
		{1000, 99, 99}, // 10 beyond p99
		{999, 99, 95},  // 9 beyond p99: fall back
		{200, 99, 95},  // 10 beyond p95
		{199, 99, 90},  // 9 beyond p95
		{100, 99, 90},  // 10 beyond p90
		{40, 99, 75},   // 10 beyond p75
		{20, 99, 50},   // 10 beyond p50
		{5000, 95, 95}, // never above the wanted level
	} {
		p, v, ok := tail(seq(c.n), c.want)
		if !ok || p != c.p {
			t.Errorf("n=%d want p%d: got p%d ok=%v, expected p%d", c.n, c.want, p, ok, c.p)
			continue
		}
		if beyond := c.n - int(v); beyond < minBeyond {
			t.Errorf("n=%d: p%d has %d samples beyond it", c.n, p, beyond)
		}
	}
	if _, _, ok := tail(seq(19), 99); ok {
		t.Error("19 samples support no percentile, not even the median")
	}
}

func TestSummarizeIsExactOverAllSamples(t *testing.T) {
	// 24000 samples i%3000+1, the first 3000 of them 50 times slower:
	// seven copies of 1..3000 and one of 50, 100, ..., 150000.
	lat := make(samples, 24000)
	for i := range lat {
		lat[i] = float64(i%3000 + 1)
	}
	// A burst confined to an eighth of the run lies within the top 12.5%
	// of all samples: it must reach the p99, unlike a median of
	// per-window percentiles, which would hide it.
	for i := 0; i < 3000; i++ {
		lat[i] *= 50
	}
	d := summarize(lat, 99)
	// The 12000th smallest: 7*1710 + 1710/50 = 12004 samples are <= 1710.
	if d.n != 24000 || d.tailP != 99 || d.p50 != 1710 {
		t.Errorf("summary = %+v", d)
	}
	if d.tail <= 3000 {
		t.Errorf("p99 %v hides the burst", d.tail)
	}
	m := metrics{}
	d.reportTail(m, "x", "us")
	if m["x_p99_us"].Value != d.tail || len(m) != 1 {
		t.Errorf("reportTail = %v", m)
	}

	// 300 samples cannot carry a p99: the tail is named p95.
	short := summarize(seq(300), 99)
	m = metrics{}
	short.reportTail(m, "ttp", "ms")
	if short.n != 300 || short.tailP != 95 || m["ttp_p95_ms"].Value != 285 {
		t.Errorf("short = %+v, report %v", short, m)
	}
}
