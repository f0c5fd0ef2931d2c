package campaign

import "lambmesh/internal/stats"

// Streaming aggregation: a campaign retains no per-trial results. Each
// metric folds into a stats.Welford accumulator plus a stats.Hist
// (quantiles), and success counts feed stats.Wilson intervals. Shard
// aggregates merge in shard order — a fixed order — so the floating-point
// results are byte-identical at any worker count.

// PointAgg is the full streaming aggregate of one grid point. Recovery
// carries wall-clock seconds of the per-trial lamb recompute; it is
// measured (not derived from the seed), so it is reported separately and
// excluded from the byte-determinism guarantee (see DESIGN.md §12).
type PointAgg struct {
	Trials    int64         `json:"trials"`
	Connected int64         `json:"connected"` // trials with zero lambs
	Lambs     stats.Welford `json:"lambs"`
	LambHist  stats.Hist    `json:"lamb_hist"`
	Faults    stats.Welford `json:"faults"`
	Recovery  stats.Welford `json:"recovery"`
}

// Merge folds another point aggregate in (shard order matters for the
// Welford members; the scheduler guarantees it).
func (a *PointAgg) Merge(b *PointAgg) {
	a.Trials += b.Trials
	a.Connected += b.Connected
	a.Lambs.Merge(b.Lambs)
	a.LambHist.Merge(&b.LambHist)
	a.Faults.Merge(b.Faults)
	a.Recovery.Merge(b.Recovery)
}

// reset zeroes the aggregate in place (shard reuse).
func (a *PointAgg) reset() {
	*a = PointAgg{}
}
