package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPercentileEmpty(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("Percentile(nil) = %v, want 0", got)
	}
}

func TestPercentileSingle(t *testing.T) {
	for _, p := range []float64{0, 50, 100} {
		if got := Percentile([]float64{42}, p); got != 42 {
			t.Fatalf("Percentile([42], %v) = %v, want 42", p, got)
		}
	}
}

func TestPercentileKnown(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {75, 7.75},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileClampsRange(t *testing.T) {
	vals := []float64{3, 1, 2}
	if got := Percentile(vals, -10); got != 1 {
		t.Errorf("p=-10 got %v, want min", got)
	}
	if got := Percentile(vals, 200); got != 3 {
		t.Errorf("p=200 got %v, want max", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	vals := []float64{3, 1, 2}
	Percentile(vals, 50)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatalf("input mutated: %v", vals)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	// Property: for any sample set, percentile is monotone nondecreasing in p
	// and bounded by [min, max].
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			q := Percentile(vals, p)
			if q < prev || q < sorted[0] || q > sorted[len(sorted)-1] {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 2, 6, 8})
	if s.Count != 4 || s.Min != 2 || s.Max != 8 || !almostEqual(s.Mean, 5, 1e-9) {
		t.Fatalf("bad summary: %+v", s)
	}
	if s.P50 != 5 {
		t.Fatalf("p50 = %v, want 5", s.P50)
	}
	if got := Summarize(nil); got.Count != 0 {
		t.Fatalf("empty summary nonzero: %+v", got)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(1); !almostEqual(got, 0.25, 1e-9) {
		t.Errorf("At(1) = %v, want 0.25", got)
	}
	if got := c.At(2); !almostEqual(got, 0.75, 1e-9) {
		t.Errorf("At(2) = %v, want 0.75", got)
	}
	if got := c.At(2.5); !almostEqual(got, 0.75, 1e-9) {
		t.Errorf("At(2.5) = %v, want 0.75", got)
	}
	if got := c.At(100); got != 1 {
		t.Errorf("At(100) = %v, want 1", got)
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	if got := c.Quantile(0.5); got != 20 {
		t.Errorf("Quantile(0.5) = %v, want 20", got)
	}
	if got := c.Quantile(1.0); got != 40 {
		t.Errorf("Quantile(1) = %v, want 40", got)
	}
	if got := c.Quantile(0.01); got != 10 {
		t.Errorf("Quantile(0.01) = %v, want 10", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.At(1) != 0 || c.Quantile(0.5) != 0 {
		t.Fatal("empty CDF should return zeros")
	}
	if got := NewCDF(nil); len(got.Values) != 0 {
		t.Fatal("NewCDF(nil) should be empty")
	}
}

func TestCDFPropertyMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = rng.NormFloat64() * 10
	}
	c := NewCDF(samples)
	prev := -1.0
	for _, f := range c.Fractions {
		if f <= prev {
			t.Fatalf("fractions not strictly increasing: %v after %v", f, prev)
		}
		prev = f
	}
	if !almostEqual(c.Fractions[len(c.Fractions)-1], 1.0, 1e-9) {
		t.Fatalf("last fraction = %v, want 1", c.Fractions[len(c.Fractions)-1])
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) + 0.5)
	}
	h.Observe(-1)
	h.Observe(11)
	if h.Total() != 12 {
		t.Fatalf("total = %d, want 12", h.Total())
	}
	if h.Underflow != 1 || h.Overflow != 1 {
		t.Fatalf("under=%d over=%d, want 1/1", h.Underflow, h.Overflow)
	}
	for i, b := range h.Buckets {
		if b != 1 {
			t.Fatalf("bucket %d = %d, want 1", i, b)
		}
	}
	if got := h.BucketCenter(0); !almostEqual(got, 0.5, 1e-9) {
		t.Fatalf("BucketCenter(0) = %v", got)
	}
}

func TestHistogramDegenerateArgs(t *testing.T) {
	h := NewHistogram(5, 5, 0) // invalid range and bucket count
	h.Observe(5)
	if h.Total() != 1 {
		t.Fatal("degenerate histogram should still count")
	}
}

func TestTimeSeriesRatios(t *testing.T) {
	ts := NewTimeSeries(time.Hour)
	ts.Add(10*time.Minute, 1, 1)  // hour 0: 1/1
	ts.Add(70*time.Minute, 1, 2)  // hour 1: 1/2
	ts.Add(80*time.Minute, 0, 2)  // hour 1: now 1/4
	ts.Add(200*time.Minute, 3, 3) // hour 3: 1 (hour 2 empty)
	got := ts.Ratios()
	want := []float64{1, 0.25, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-9) {
			t.Errorf("ratio[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := NewTimeSeries(0) // also exercises default window
	if got := ts.Ratios(); got != nil {
		t.Fatalf("empty ratios = %v, want nil", got)
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{2, 4, 6}, 2)
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Normalize = %v, want %v", got, want)
		}
	}
	// Zero base: unchanged copy.
	src := []float64{1, 2}
	got = Normalize(src, 0)
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("Normalize zero base = %v", got)
	}
	got[0] = 99
	if src[0] == 99 {
		t.Fatal("Normalize must copy, not alias")
	}
}

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("empty/degenerate stats should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); !almostEqual(got, 2, 1e-9) {
		t.Fatalf("Mean = %v", got)
	}
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 2, 1e-9) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestGauges(t *testing.T) {
	gs := Gauges{{Name: "hits", Value: 3}, {Name: "total", Value: 4}, {Name: "rate", Value: 0.75}}
	if got, want := gs.String(), "hits=3 total=4 rate=0.75"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if Gauges(nil).String() != "" {
		t.Fatal("empty Gauges should render empty")
	}
}
