package sim

import (
	"math/rand"
	"time"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/par"
	"lambmesh/internal/routing"
	"lambmesh/internal/stats"
)

// Config controls how experiments run.
type Config struct {
	// Trials per data point. The paper uses 1000 (10000 for the rare-lamb
	// check of Section 3); smaller counts reproduce the same shapes much
	// faster.
	Trials int
	// Seed makes every run reproducible; trial t draws from a generator
	// seeded with par.TrialSeed(Seed, 0, t) (the repo-wide contract,
	// DESIGN.md §12).
	Seed int64
	// Workers bounds trial parallelism; <= 0 means NumCPU.
	Workers int
}

// DefaultConfig runs 100 trials on all CPUs with a fixed seed.
func DefaultConfig() Config { return Config{Trials: 100, Seed: 1, Workers: 0} }

func (c Config) workers() int { return par.Clamp(c.Workers) }

func (c Config) trials() int {
	if c.Trials > 0 {
		return c.Trials
	}
	return 100
}

// Trials runs fn for trial = 0..n-1 on par.Do over cfg's worker count and
// returns the results in trial order. Trial t draws from its own generator,
// rand.New(rand.NewSource(par.TrialSeed(cfg.Seed, 0, t))), so each result
// is a pure function of (seed, trial): folding the slice in order gives
// bit-identical aggregates at any worker count.
//
// Each in-flight trial borrows a core.Solver from a free list the run
// keeps, so per-trial lamb computations amortize their scratch across the
// whole run: at most one Solver per worker is ever built. A Solver carries
// only buffers, never results, so which one a trial gets does not matter.
func Trials[T any](cfg Config, n int, fn func(trial int, rng *rand.Rand, s *core.Solver) T) []T {
	out := make([]T, n)
	workers := cfg.workers()
	free := make(chan *core.Solver, workers) // never more Solvers than workers
	par.Do(workers, n, func(t int) {
		var s *core.Solver
		select {
		case s = <-free:
		default:
			s = core.NewSolver()
		}
		out[t] = fn(t, rand.New(rand.NewSource(par.TrialSeed(cfg.Seed, 0, t))), s)
		free <- s
	})
	return out
}

// LambObservation is what one randomized trial of the lamb algorithm
// yields — the quantities Figures 17-26 aggregate.
type LambObservation struct {
	Lambs   int
	SES     int
	DES     int
	Seconds float64
}

// RunLambTrial draws `faults` random node faults on the mesh and runs Lamb1
// with k rounds of ascending (e-cube) ordering through the caller's Solver,
// timing just the algorithm (fault generation excluded, matching the
// paper's running-time figure). workers sizes the Lamb1 reachability
// kernels (<= 0 means NumCPU); the experiments pass 1 because Trials
// already saturates the machine with concurrent trials, and nesting
// per-trial parallelism would only add scheduling noise to the timings.
func RunLambTrial(m *mesh.Mesh, faults, k, workers int, rng *rand.Rand, s *core.Solver) LambObservation {
	fs := mesh.RandomNodeFaults(m, faults, rng)
	start := time.Now()
	res, err := s.Lamb1(fs, routing.UniformAscending(m.Dims(), k), core.WithWorkers(workers))
	if err != nil {
		panic(err) // experiment misconfiguration; inputs are validated upstream
	}
	return LambObservation{
		Lambs:   res.NumLambs(),
		SES:     res.Stats.NumSES,
		DES:     res.Stats.NumDES,
		Seconds: time.Since(start).Seconds(),
	}
}

// PointStats aggregates trial observations at one sweep point, folded in
// trial order.
type PointStats struct {
	Faults   int
	Lambs    stats.Welford
	MaxLambs int
	SES      stats.Welford
	MaxSES   int
	Seconds  stats.Welford
}

// RunLambPoint runs cfg.Trials trials at a fixed fault count.
func RunLambPoint(cfg Config, m *mesh.Mesh, faults, k int) *PointStats {
	obs := Trials(cfg, cfg.trials(), func(_ int, rng *rand.Rand, s *core.Solver) LambObservation {
		return RunLambTrial(m, faults, k, 1, rng, s)
	})
	ps := &PointStats{Faults: faults}
	for _, o := range obs {
		ps.Lambs.Add(float64(o.Lambs))
		ps.MaxLambs = max(ps.MaxLambs, o.Lambs)
		ps.SES.Add(float64(o.SES))
		ps.MaxSES = max(ps.MaxSES, o.SES)
		ps.Seconds.Add(o.Seconds)
	}
	return ps
}
