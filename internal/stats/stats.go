// Package stats is the one streaming-statistics library of the repository:
// a Welford accumulator (mean/variance in one pass, numerically stable), a
// fixed-bin log histogram (quantiles), and Wilson score intervals for
// success counts. Callers retain no per-trial results. Everything merges:
// Hist merges are exact in any order, and Welford merges are exact up to
// the low-order float bits, so callers that need byte-identical output at
// any worker count fold in a fixed order (trial order in internal/sim,
// shard order in internal/campaign).
package stats

import "math"

// Welford is a one-pass mean/variance accumulator (Welford's algorithm;
// merged pairs use the Chan et al. parallel update).
type Welford struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// Add folds one observation in.
func (w *Welford) Add(x float64) {
	w.N++
	d := x - w.Mean
	w.Mean += d / float64(w.N)
	w.M2 += d * (x - w.Mean)
}

// Merge folds another accumulator in. Merge order affects the low-order
// float bits, so the scheduler always merges in shard order.
func (w *Welford) Merge(o Welford) {
	if o.N == 0 {
		return
	}
	if w.N == 0 {
		*w = o
		return
	}
	n := w.N + o.N
	d := o.Mean - w.Mean
	w.Mean += d * float64(o.N) / float64(n)
	w.M2 += o.M2 + d*d*float64(w.N)*float64(o.N)/float64(n)
	w.N = n
}

// Variance returns the sample variance (n-1 denominator); 0 for n < 2.
func (w *Welford) Variance() float64 {
	if w.N < 2 {
		return 0
	}
	return w.M2 / float64(w.N-1)
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval on the mean.
func (w *Welford) CI95() float64 {
	if w.N < 2 {
		return 0
	}
	return 1.959963984540054 * math.Sqrt(w.Variance()/float64(w.N))
}

// Histogram bins: value v > 0 lands in bin floor((log10(v)+histShift) *
// histPerDecade), covering 1e-12 .. 1e6 with 16 log-spaced bins per decade.
// Zero values are counted apart. Everything is integer counts, so merges are
// exact regardless of order.
const (
	histPerDecade = 16
	histShift     = 12 // decades below 1.0 covered
	histBins      = (histShift + 6) * histPerDecade
)

// Hist is a fixed-bin log histogram for non-negative observations.
type Hist struct {
	Zero  int64           `json:"zero"`
	Count int64           `json:"count"`
	Bins  [histBins]int64 `json:"bins"`
}

func histBin(v float64) int {
	b := int(math.Floor((math.Log10(v) + histShift) * histPerDecade))
	if b < 0 {
		return 0
	}
	if b >= histBins {
		return histBins - 1
	}
	return b
}

// Add folds one observation in. Negative values are clamped to zero.
func (h *Hist) Add(v float64) {
	h.Count++
	if v <= 0 {
		h.Zero++
		return
	}
	h.Bins[histBin(v)]++
}

// Merge folds another histogram in; exact in any order.
func (h *Hist) Merge(o *Hist) {
	h.Zero += o.Zero
	h.Count += o.Count
	for i := range h.Bins {
		h.Bins[i] += o.Bins[i]
	}
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1): the
// geometric midpoint of the bin holding the ceil(q*Count)-th observation
// (0 for the zero bin). Log-spaced bins bound the relative error by the bin
// width (~15% per bin at 16 bins/decade).
func (h *Hist) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.Count)))
	if target < 1 {
		target = 1
	}
	if target > h.Count {
		target = h.Count
	}
	if target <= h.Zero {
		return 0
	}
	seen := h.Zero
	for b := 0; b < histBins; b++ {
		seen += h.Bins[b]
		if seen >= target {
			return math.Pow(10, (float64(b)+0.5)/histPerDecade-histShift)
		}
	}
	return 0
}

// Wilson returns the 95% Wilson score interval for a binomial proportion
// with `successes` out of `n` trials. Unlike the normal approximation it
// behaves at the boundaries (0 or n successes), where campaign
// P(k-round-connected) estimates usually live.
func Wilson(successes, n int64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.959963984540054
	p := float64(successes) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
