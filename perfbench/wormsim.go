package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"lambmesh/internal/mesh"
	"lambmesh/internal/par"
	"lambmesh/internal/routing"
	"lambmesh/internal/wormhole"
)

const (
	cellWarmup  = 900
	cellMeasure = 1800
	cellFlits   = 8
	satRate     = 0.03 // packets/node/cycle: past saturation on this mesh
	// cellRefSeed seeds the set-up's reference fault draw and cells, whose
	// digests are recorded below.
	cellRefSeed = 1
	maxCells    = 1 << 16
	cellSetups  = 3 // set-ups per run; setup_s is their median
)

// Recorded digests of the set-up's reference light and saturated cells. A
// simulator change must leave them identical.
const (
	cellRefLightDigest = 0x68ebc34c4b89bfd6
	cellRefSatDigest   = 0xe7f6939c32072efe
)

// cellRates is the fixed cycle of cell injection rates: 24 light-load
// cells evenly spread over [0.002, 0.005] and 8 saturated ones, in a fixed
// shuffled order, so p50 falls in the light regime and p90 in the
// saturated one. Many distinct light rates keep the p50 inside a continuum
// of cell costs instead of between two clusters, where it would jump with
// how many repeats of each a run happens to finish.
var cellRates = func() []float64 {
	var rates []float64
	for i := 0; i < 24; i++ {
		rates = append(rates, 0.002+0.003*(float64(i)+0.5)/24)
	}
	for i := 0; i < 8; i++ {
		rates = append(rates, satRate)
	}
	rng := rand.New(rand.NewSource(17))
	rng.Shuffle(len(rates), func(i, j int) { rates[i], rates[j] = rates[j], rates[i] })
	return rates
}()

var cellNet = wormhole.Config{VirtualChannels: 2, BufferDepth: 2, StallCycles: 2000, MaxCycles: 5_000_000}

// wormsimInput is the wormsim-sweep workload's mesh and seeded faults.
func wormsimInput(seed int64) *mesh.FaultSet {
	return mesh.RandomNodeFaults(mesh.MustNew(16, 16), 8, rngFor(seed, streamFaults, 2))
}

// cellSim is one simulation cell's strategy and survivor count.
type cellSim struct {
	strat wormhole.RouteStrategy
	nodes int
}

func newCellSim(f *mesh.FaultSet) (*cellSim, error) {
	s, err := wormhole.NewLambStrategy(f, routing.UniformAscending(2, 2))
	if err != nil {
		return nil, err
	}
	return &cellSim{strat: s, nodes: len(wormhole.Survivors(f, s.Sacrificed()))}, nil
}

// cellTimes marks when one cell started, finished generating its
// workload, and finished simulating it.
type cellTimes struct{ start, genEnd, end time.Time }

func (t cellTimes) gen() time.Duration    { return t.genEnd.Sub(t.start) }
func (t cellTimes) engine() time.Duration { return t.end.Sub(t.genEnd) }

// run simulates one cell: exactly the static-strategy cell of
// wormhole.RunSweep with Rates {rate}, Trials 1 and Seed sweepSeed, whose
// one cell draws from par.TrialSeed(sweepSeed, 0, 0).
func (c *cellSim) run(rate float64, sweepSeed int64) (wormhole.EngineResult, cellTimes, error) {
	ct := cellTimes{start: time.Now()}
	rng := rand.New(rand.NewSource(par.TrialSeed(sweepSeed, 0, 0)))
	packets, _, err := wormhole.GenerateStrategyWorkload(c.strat, wormhole.WorkloadSpec{
		Pattern:     wormhole.PatternUniform,
		Rate:        rate,
		PacketFlits: cellFlits,
		Cycles:      cellWarmup + cellMeasure,
	}, cellNet.VirtualChannels, rng)
	if err != nil {
		return wormhole.EngineResult{}, ct, err
	}
	ct.genEnd = time.Now()
	eng, err := wormhole.NewEngine(c.strat.Faults(), wormhole.EngineConfig{
		Net:           cellNet,
		WarmupCycles:  cellWarmup,
		MeasureCycles: cellMeasure,
		Nodes:         c.nodes,
	}, packets)
	if err != nil {
		return wormhole.EngineResult{}, ct, err
	}
	res := eng.Run()
	ct.end = time.Now()
	return res, ct, nil
}

// cellDigest hashes a cell's simulated statistics.
func cellDigest(r wormhole.EngineResult) uint64 {
	h := fnv.New64a()
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	for _, v := range []uint64{
		uint64(r.Cycles), uint64(r.Packets), uint64(r.Delivered),
		uint64(r.SamplePackets), uint64(r.SampleDelivered),
		math.Float64bits(r.OfferedFlitRate), math.Float64bits(r.AcceptedFlitRate),
		math.Float64bits(r.MeanLatency), uint64(r.P99Latency), uint64(r.MaxLatency),
		b(r.Saturated), b(r.Deadlocked),
	} {
		binary.Write(h, binary.LittleEndian, v)
	}
	return h.Sum64()
}

func checkCell(r wormhole.EngineResult, want uint64) error {
	if r.Deadlocked {
		return fmt.Errorf("cell deadlocked after %d cycles", r.Cycles)
	}
	if got := cellDigest(r); got != want {
		return fmt.Errorf("cell digest %#x, recorded %#x (cycles %d, delivered %d, accepted %.6f, mean latency %.3f)",
			got, want, r.Cycles, r.Delivered, r.AcceptedFlitRate, r.MeanLatency)
	}
	return nil
}

// wormsimSetup draws the run's faults and builds its strategy, then runs
// the reference light and saturated cells and checks their digests.
func wormsimSetup(seed int64) (*cellSim, int64, error) {
	sim, err := newCellSim(wormsimInput(seed))
	if err != nil {
		return nil, 0, err
	}
	ref, err := newCellSim(wormsimInput(cellRefSeed))
	if err != nil {
		return nil, 0, err
	}
	var failed int64
	for _, c := range []struct {
		rate float64
		want uint64
	}{{0.004, cellRefLightDigest}, {satRate, cellRefSatDigest}} {
		r, _, err := ref.run(c.rate, cellRefSeed)
		if err != nil {
			return nil, 0, err
		}
		if err := checkCell(r, c.want); err != nil {
			failed++
			fmt.Fprintf(logw, "wormsim-sweep: reference cell at rate %v: %v\n", c.rate, err)
		}
	}
	return sim, failed, nil
}

func runWormsim(o runOpts) (*outcome, error) {
	out := &outcome{lat: &hist{}, layer: map[string]float64{}}
	var sim *cellSim
	for i := 0; i < cellSetups; i++ {
		start := time.Now()
		var failed int64
		var err error
		if sim, failed, err = wormsimSetup(o.seed); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(start))
		out.attempted += 2
		out.failed += failed
	}

	var (
		mu      sync.Mutex
		digests = map[int]uint64{}
		busy    time.Duration
		cycles  int64
		buf     spanBuf
	)
	runtime.GC()
	gc0 := readGC()
	start := time.Now()
	deadline := start.Add(o.dur)
	par.Do(loadConns, maxCells, func(i int) {
		if time.Now().After(deadline) {
			return
		}
		pos := i % len(cellRates)
		t0 := time.Now()
		res, ct, err := sim.run(cellRates[pos], par.TrialSeed(o.seed, streamCells, pos))
		t1 := time.Now()
		lat := t1.Sub(t0)
		var sp []span
		if o.tr != nil {
			id := o.tr.newID()
			sp = []span{
				{name: "par.cell", id: id, start: o.tr.at(t0), end: o.tr.at(t1)},
				{name: "wormhole.generate", id: o.tr.newID(), parent: id, start: o.tr.at(ct.start), end: o.tr.at(ct.genEnd)},
				{name: "wormhole.engine", id: o.tr.newID(), parent: id, start: o.tr.at(ct.genEnd), end: o.tr.at(ct.end)},
			}
		}
		mu.Lock()
		defer mu.Unlock()
		out.attempted++
		for _, s := range sp {
			buf.add(s)
		}
		if err != nil {
			out.failed++
			fmt.Fprintln(logw, "wormsim-sweep:", err)
			return
		}
		want, seen := digests[pos]
		if !seen {
			want = cellDigest(res)
			digests[pos] = want
		}
		if err := checkCell(res, want); err != nil {
			out.failed++
			fmt.Fprintf(logw, "wormsim-sweep: cell %d: %v\n", i, err)
			return
		}
		out.lat.add(lat)
		cycles += int64(res.Cycles)
		busy += lat
	})
	out.wall = time.Since(start)
	gc1 := readGC()
	out.gc = gcSnap{cycles: gc1.cycles - gc0.cycles, pause: gc1.pause - gc0.pause}
	out.work = float64(cycles)
	o.tr.collect(&buf)
	out.heapMiB = liveHeapMiB()
	runtime.KeepAlive(sim)
	out.layer["par.busy_share"] = busy.Seconds() / (float64(loadConns) * out.wall.Seconds())
	return out, nil
}
