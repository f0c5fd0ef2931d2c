package main

import (
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// hist is a latency sample store. Up to rawCap samples it keeps every one
// and its quantiles are exact; past that it answers from a log-bucketed
// histogram: 64 sub-buckets per octave (about 1.1% relative width), with
// linear interpolation inside a bucket so quantiles move continuously with
// the data. It holds millions of route-query samples in constant memory,
// which keeps the sample store out of heap_live_mb.
type hist struct {
	counts [64 * 64]int64
	n      int64
	raw    []float64
}

const rawCap = 1 << 14

const histSub = 64

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 7 // ns >> e lies in [64, 128)
	return (e+1)*histSub + int(ns>>e) - histSub
}

// histBounds returns the [lo, hi) nanosecond range of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	e := i/histSub - 1
	m := i%histSub + histSub
	return float64(int64(m) << e), float64(int64(m+1) << e)
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
	if h.n <= rawCap {
		h.raw = append(h.raw, float64(d))
	} else {
		h.raw = nil
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if h.n <= rawCap {
		h.raw = append(h.raw, o.raw...)
	} else {
		h.raw = nil
	}
}

// quantile returns the q-quantile in nanoseconds.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if int64(len(h.raw)) == h.n {
		return quantile(append([]float64(nil), h.raw...), q)
	}
	rank := q * float64(h.n-1)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-float64(cum)+0.5)/float64(c)
		}
		cum += c
	}
	_, hi := histBounds(len(h.counts) - 1)
	return hi
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the convention of Python's statistics.quantiles
// "inclusive" method). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// gcSnap is the Go runtime's GC state at one instant.
type gcSnap struct {
	cycles uint32
	pause  time.Duration
}

func readGC() gcSnap {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return gcSnap{cycles: st.NumGC, pause: time.Duration(st.PauseTotalNs)}
}

// liveHeapMiB forces a collection and returns the live heap it found.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		var st runtime.MemStats
		runtime.ReadMemStats(&st)
		return float64(st.HeapAlloc) / (1 << 20)
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
