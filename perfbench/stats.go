package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail percentile resting on fewer samples is noise.
const minBeyond = 10

// tailLevels are the percentiles a tail metric may fall back to, highest
// first.
var tailLevels = []int{99, 95, 90, 75, 50}

// samples is a set of raw measurements (one per operation).
type samples []float64

// sorted returns an ascending copy.
func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// rank is the 1-based nearest-rank index of percentile p (0 < p <= 100)
// in n samples.
func rank(n, p int) int {
	r := int(math.Ceil(float64(p) * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile is the exact nearest-rank percentile of ascending samples.
func percentile(asc samples, p int) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	return asc[rank(len(asc), p)-1]
}

// median of unsorted samples.
func median(s samples) float64 { return percentile(s.sorted(), 50) }

// supports reports whether n samples leave at least minBeyond samples
// above percentile p.
func supports(n, p int) bool { return n-rank(n, p) >= minBeyond }

// tail returns the highest percentile at or below want that n samples
// support, and its value. ok is false when not even the median is
// supported.
func tail(asc samples, want int) (p int, v float64, ok bool) {
	for _, level := range tailLevels {
		if level > want {
			continue
		}
		if supports(len(asc), level) {
			return level, percentile(asc, level), true
		}
	}
	return 0, math.NaN(), false
}

// dist is the exact distribution summary of one metric's raw samples:
// the sample count, the nearest-rank median, and the highest percentile
// at or below the wanted one that has minBeyond samples above it.
type dist struct {
	n     int
	p50   float64
	tailP int // 0 when not even the median is supported
	tail  float64
}

func summarize(s samples, want int) dist {
	asc := s.sorted()
	d := dist{n: len(asc), p50: percentile(asc, 50)}
	if p, v, ok := tail(asc, want); ok {
		d.tailP, d.tail = p, v
	}
	return d
}

// reportTail adds the tail as "<prefix>_p<P>_<unit>", named by the
// level the samples support, so a run with too few samples never
// passes off a thin tail as a p99.
func (d dist) reportTail(m metrics, prefix, unit string) {
	if d.tailP > 50 {
		m.set(fmt.Sprintf("%s_p%d_%s", prefix, d.tailP, unit), d.tail, unit)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func (m metrics) merge(o metrics) {
	for k, v := range o {
		m[k] = v
	}
}

// spanSet collects per-operation durations of named spans.
type spanSet map[string]samples

func (s spanSet) add(name string, v float64) { s[name] = append(s[name], v) }

// medianOr returns the median of the named span, or 0 when it is empty.
func (s spanSet) medianOr(name string) float64 {
	if len(s[name]) == 0 {
		return 0
	}
	return median(s[name])
}
