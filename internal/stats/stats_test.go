package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestWelfordMatchesBatch checks the streaming mean/variance against a
// naive two-pass recompute over the same data.
func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			// Mix of scales so numerical stability matters.
			xs[i] = rng.NormFloat64()*math.Pow(10, float64(rng.Intn(6)-3)) + 50
			w.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(n)
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		if math.Abs(w.Mean-mean) > 1e-9*math.Max(1, math.Abs(mean)) {
			t.Fatalf("trial %d: stream mean %v, batch %v", trial, w.Mean, mean)
		}
		if n >= 2 {
			v := m2 / float64(n-1)
			if math.Abs(w.Variance()-v) > 1e-6*math.Max(1, v) {
				t.Fatalf("trial %d: stream var %v, batch %v", trial, w.Variance(), v)
			}
		}
	}
}

// TestWelfordMergeMatchesBatch splits a stream at random points, folds each
// chunk separately, merges in order, and checks against the batch values.
func TestWelfordMergeMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(500)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 10
		}
		var merged Welford
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(n-lo)
			var chunk Welford
			for _, x := range xs[lo:hi] {
				chunk.Add(x)
			}
			merged.Merge(chunk)
			lo = hi
		}
		var whole Welford
		for _, x := range xs {
			whole.Add(x)
		}
		if merged.N != whole.N {
			t.Fatalf("trial %d: merged n %d, whole %d", trial, merged.N, whole.N)
		}
		if math.Abs(merged.Mean-whole.Mean) > 1e-9*math.Max(1, math.Abs(whole.Mean)) {
			t.Fatalf("trial %d: merged mean %v, whole %v", trial, merged.Mean, whole.Mean)
		}
		if math.Abs(merged.Variance()-whole.Variance()) > 1e-6*math.Max(1, whole.Variance()) {
			t.Fatalf("trial %d: merged var %v, whole %v", trial, merged.Variance(), whole.Variance())
		}
	}
}

// TestHistQuantiles checks histogram quantiles against exact order
// statistics: a log-binned estimate must land within one bin's relative
// width of the true value.
func TestHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 100 + rng.Intn(5000)
		xs := make([]float64, n)
		var h Hist
		for i := range xs {
			xs[i] = math.Exp(rng.NormFloat64() * 3)
			h.Add(xs[i])
		}
		sort.Float64s(xs)
		binWidth := math.Pow(10, 1.0/histPerDecade) // multiplicative bin width
		for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
			idx := int(math.Ceil(q*float64(n))) - 1
			exact := xs[idx]
			est := h.Quantile(q)
			if est < exact/binWidth || est > exact*binWidth {
				t.Fatalf("trial %d q=%v: estimate %v outside one bin of exact %v", trial, q, est, exact)
			}
		}
	}
}

// TestHistZeroAndMerge covers the zero bin and exactness of merges.
func TestHistZeroAndMerge(t *testing.T) {
	var a, b, whole Hist
	vals := []float64{0, 0, 1, 2.5, 1000, 0.001, 0}
	for i, v := range vals {
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	if a != whole {
		t.Fatalf("merged histogram differs from streamed: %+v vs %+v", a, whole)
	}
	if whole.Zero != 3 || whole.Count != int64(len(vals)) {
		t.Fatalf("zero/count wrong: %+v", whole)
	}
	if q := whole.Quantile(0.01); q != 0 {
		t.Fatalf("q0.01 should hit the zero bin, got %v", q)
	}
}

// TestWilson spot-checks the score interval.
func TestWilson(t *testing.T) {
	lo, hi := Wilson(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("no-data interval should be [0,1], got [%v,%v]", lo, hi)
	}
	// 0/10 successes: lo must be exactly 0, hi well above 0.
	lo, hi = Wilson(0, 10)
	if lo != 0 || hi < 0.2 || hi > 0.4 {
		t.Fatalf("Wilson(0,10) = [%v,%v], want [0, ~0.28]", lo, hi)
	}
	// 50/100: symmetric around 0.5, roughly ±0.098.
	lo, hi = Wilson(50, 100)
	if math.Abs(lo-0.4038) > 0.005 || math.Abs(hi-0.5962) > 0.005 {
		t.Fatalf("Wilson(50,100) = [%v,%v]", lo, hi)
	}
	// Interval always contains the point estimate.
	for n := int64(1); n <= 30; n++ {
		for s := int64(0); s <= n; s++ {
			lo, hi := Wilson(s, n)
			p := float64(s) / float64(n)
			if p < lo-1e-12 || p > hi+1e-12 {
				t.Fatalf("Wilson(%d,%d) = [%v,%v] excludes %v", s, n, lo, hi, p)
			}
		}
	}
}
