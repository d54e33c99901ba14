// Package metrics provides the statistical primitives used by the
// SubmitQueue evaluation harness: percentile estimation, empirical CDFs,
// histograms, and time-bucketed series. All functions are deterministic and
// allocation-conscious so they can run inside benchmarks. Render and Sum
// (counters.go) turn the layers' Stats structs into named gauges and add
// them up.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of values using
// linear interpolation between closest ranks. It returns 0 for an empty
// input. The input slice is not modified.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted computes a percentile over an already-sorted slice.
func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds the order statistics the paper reports for turnaround times.
type Summary struct {
	Count int
	Mean  float64
	Min   float64
	Max   float64
	P50   float64
	P95   float64
	P99   float64
}

// Summarize computes a Summary over values. It returns a zero Summary for an
// empty input.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return Summary{
		Count: len(sorted),
		Mean:  sum / float64(len(sorted)),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P50:   percentileSorted(sorted, 50),
		P95:   percentileSorted(sorted, 95),
		P99:   percentileSorted(sorted, 99),
	}
}

// String renders a Summary as a single human-readable line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f min=%.2f max=%.2f",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Min, s.Max)
}

// CDF is an empirical cumulative distribution function: for each point,
// Fraction of samples <= Value.
type CDF struct {
	Values    []float64 // sorted sample values
	Fractions []float64 // cumulative fraction at each value, in (0, 1]
}

// NewCDF builds an empirical CDF from samples. Duplicate values are merged.
func NewCDF(samples []float64) CDF {
	if len(samples) == 0 {
		return CDF{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	var c CDF
	n := float64(len(sorted))
	for i := 0; i < len(sorted); i++ {
		// Merge runs of equal values, keeping the highest fraction.
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		c.Values = append(c.Values, sorted[i])
		c.Fractions = append(c.Fractions, float64(i+1)/n)
	}
	return c
}

// At returns the cumulative fraction of samples <= x.
func (c CDF) At(x float64) float64 {
	if len(c.Values) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.SearchFloat64s(c.Values, x)
	if i < len(c.Values) && c.Values[i] == x {
		return c.Fractions[i]
	}
	if i == 0 {
		return 0
	}
	return c.Fractions[i-1]
}

// Quantile returns the smallest sample value v such that At(v) >= q.
func (c CDF) Quantile(q float64) float64 {
	if len(c.Values) == 0 {
		return 0
	}
	for i, f := range c.Fractions {
		if f >= q {
			return c.Values[i]
		}
	}
	return c.Values[len(c.Values)-1]
}

// Histogram is a fixed-width bucket histogram over [Min, Max).
type Histogram struct {
	Min     float64
	Max     float64
	Buckets []int
	// Underflow and Overflow count samples outside [Min, Max).
	Underflow int
	Overflow  int
	total     int
}

// NewHistogram creates a histogram with n buckets spanning [min, max).
func NewHistogram(min, max float64, n int) *Histogram {
	if n <= 0 {
		n = 1
	}
	if max <= min {
		max = min + 1
	}
	return &Histogram{Min: min, Max: max, Buckets: make([]int, n)}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	h.total++
	switch {
	case v < h.Min:
		h.Underflow++
	case v >= h.Max:
		h.Overflow++
	default:
		i := int((v - h.Min) / (h.Max - h.Min) * float64(len(h.Buckets)))
		if i >= len(h.Buckets) { // guard against float edge
			i = len(h.Buckets) - 1
		}
		h.Buckets[i]++
	}
}

// Total returns the number of observed samples, including out-of-range ones.
func (h *Histogram) Total() int { return h.total }

// BucketCenter returns the midpoint value of bucket i.
func (h *Histogram) BucketCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Buckets))
	return h.Min + w*(float64(i)+0.5)
}

// TimeSeries buckets events into fixed-duration windows, tracking a
// numerator and denominator per window (e.g. green minutes per hour).
type TimeSeries struct {
	Window time.Duration
	num    map[int64]float64
	den    map[int64]float64
}

// NewTimeSeries creates a TimeSeries with the given window size.
func NewTimeSeries(window time.Duration) *TimeSeries {
	if window <= 0 {
		window = time.Hour
	}
	return &TimeSeries{Window: window, num: map[int64]float64{}, den: map[int64]float64{}}
}

// Add accumulates num/den into the window containing t.
func (ts *TimeSeries) Add(t time.Duration, num, den float64) {
	k := int64(t / ts.Window)
	ts.num[k] += num
	ts.den[k] += den
}

// Ratios returns the per-window num/den ratios ordered by window index.
// Windows with a zero denominator are reported as ratio 0.
func (ts *TimeSeries) Ratios() []float64 {
	if len(ts.den) == 0 {
		return nil
	}
	var maxK int64 = -1
	var minK int64 = math.MaxInt64
	for k := range ts.den {
		if k > maxK {
			maxK = k
		}
		if k < minK {
			minK = k
		}
	}
	out := make([]float64, 0, maxK-minK+1)
	for k := minK; k <= maxK; k++ {
		d := ts.den[k]
		if d == 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, ts.num[k]/d)
	}
	return out
}

// Normalize divides every element of values by base. A base of zero returns
// a copy of values unchanged (avoids Inf in reports).
func Normalize(values []float64, base float64) []float64 {
	out := make([]float64, len(values))
	copy(out, values)
	if base == 0 {
		return out
	}
	for i := range out {
		out[i] /= base
	}
	return out
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// StdDev returns the population standard deviation, or 0 for fewer than two
// samples.
func StdDev(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	m := Mean(values)
	s := 0.0
	for _, v := range values {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(values)))
}
