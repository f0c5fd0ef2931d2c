package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

const (
	churnReports = 16 // reports per script cycle; then a fresh server restarts from the base set
	churnBatch   = 34 // nodes in every 16th report: above core.DefaultIncrementalThreshold, so a full solve
	// The reporter sleeps between generation checks for 1/200 of the last
	// report's latency, clamped to [minPoll, maxPoll], so the interval stays
	// well under 1% of the report-to-epoch p50 without waking the poller
	// thousands of times per recompute.
	minPoll = 10 * time.Microsecond
	maxPoll = time.Millisecond
	// readEvery spaces the reader's batches, open loop: 16 queries every
	// 50ms. While a recompute holds both CPUs each wire round trip waits
	// for the scheduler's preemption ticks (about 20ms a hop), so a denser
	// stream would queue behind itself; this one observes the recompute
	// without competing with it for CPU.
	readEvery = 50 * time.Millisecond
	// churnTimeout bounds the wait for one report's epoch.
	churnTimeout = 10 * time.Second
)

// churnInputSeed fixes the base fault set and the report script; --seed
// draws the read stream. A report's cost depends on where its faults land
// (single reports range over 4x, mostly in how many class-table slots the
// carry-over must refill), and a run replays only a few dozen reports, so
// seeded scripts would put that input variance into the run-to-run spread.
// Replaying one script also lets every cycle be checked against the first.
const churnInputSeed = 1

// churnInput is the fault-churn workload's mesh, base faults and script:
// churnReports fault reports of nodes not yet faulty, one node each except
// every 16th, which reports churnBatch nodes.
func churnInput() (*mesh.Mesh, *mesh.FaultSet, [][]mesh.Coord) {
	m := mesh.MustNew(64, 64)
	base := mesh.RandomNodeFaults(m, 120, rngFor(churnInputSeed, streamFaults, 1))
	rng := rngFor(churnInputSeed, streamScript, 0)
	taken := map[int64]bool{}
	for _, f := range base.NodeFaults() {
		taken[m.Index(f)] = true
	}
	draw := func() mesh.Coord {
		for {
			c := mesh.Coord{rng.Intn(m.Width(0)), rng.Intn(m.Width(1))}
			if !taken[m.Index(c)] {
				taken[m.Index(c)] = true
				return c
			}
		}
	}
	script := make([][]mesh.Coord, churnReports)
	for r := range script {
		n := 1
		if (r+1)%16 == 0 {
			n = churnBatch
		}
		for i := 0; i < n; i++ {
			script[r] = append(script[r], draw())
		}
	}
	return m, base, script
}

// checkEpochHas reports an error unless every reported node is faulty in
// the epoch's fault set.
func checkEpochHas(faults *mesh.FaultSet, reported []mesh.Coord) error {
	for _, c := range reported {
		if !faults.NodeFaulty(c) {
			return fmt.Errorf("reported fault %v missing from the published epoch", c)
		}
	}
	return nil
}

func lambsDigest(lambs []mesh.Coord) uint64 {
	h := fnv.New64a()
	for _, c := range lambs {
		fmt.Fprint(h, c, ";")
	}
	return h.Sum64()
}

func runFaultChurn(o runOpts) (*outcome, error) {
	m, base, script := churnInput()
	orders := routing.UniformAscending(2, 2)
	out := &outcome{lat: &hist{}, readLat: &hist{}, layer: map[string]float64{}}
	unpin := pinPoller()
	defer unpin()

	var buf spanBuf
	defer o.tr.collect(&buf)
	var final uint64 // lamb-set digest every complete cycle must reach
	var reads, stale, reports, recomputes, warmHits, coldFills int64
	var pollN int64
	var pollTotal time.Duration
	poll := minPoll
	runtime.GC()
	gc0 := readGC()
	var deadline time.Time // the timed phase starts after the first set-up
	for cycle := 0; ; cycle++ {
		start := time.Now()
		d, err := startLambd(m, base, 1, o.tr)
		if err != nil {
			return nil, err
		}
		n, err := d.warm(d.clients[0])
		if err != nil {
			d.close()
			return nil, fmt.Errorf("warm pass: %w", err)
		}
		out.setups = append(out.setups, time.Since(start))
		out.attempted += n
		if cycle == 0 {
			deadline = time.Now().Add(o.dur)
		}

		var want atomic.Uint64
		var stop atomic.Bool
		var rl connLoad
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := &pairGen{rng: rngFor(o.seed, streamPairs, 100+cycle), surv: d.survivors}
			loadConn(d.clients[0], g, readEvery, stop.Load, o.tr, d.connTrace(0), &want, &rl)
		}()

		phase := time.Now()
		var lats []time.Duration
		ep := d.srv.Epoch()
		warmed := ep.Generation // its table was filled by the warm pass, not carried over
		complete := true
		for _, rep := range script {
			if time.Now().After(deadline) {
				complete = false
				break
			}
			out.attempted++
			var id uint32
			var s0 int64
			want.Store(ep.Generation + 1)
			if o.tr != nil {
				id, s0 = o.tr.newID(), o.tr.now()
			}
			t0 := time.Now()
			err := d.srv.ReportFaults(rep, nil)
			if o.tr != nil {
				buf.add(span{name: "server.report_faults", id: o.tr.newID(), parent: id, start: s0, end: o.tr.now()})
			}
			if err != nil {
				out.failed++
				fmt.Fprintln(logw, "fault-churn: report:", err)
				continue
			}
			for d.srv.Epoch().Generation <= ep.Generation && time.Since(t0) < churnTimeout {
				p0 := time.Now()
				pollSleep(poll)
				pollTotal += time.Since(p0)
				pollN++
			}
			lat := time.Since(t0)
			poll = min(max(lat/200, minPoll), maxPoll)
			if o.tr != nil {
				buf.add(span{name: "server.report", id: id, start: s0, end: o.tr.now()})
			}
			next := d.srv.Epoch()
			if next.Generation != ep.Generation+1 {
				out.failed++
				fmt.Fprintf(logw, "fault-churn: report after generation %d published generation %d (%s)\n",
					ep.Generation, next.Generation, d.srv.LastError())
				ep = next
				continue
			}
			if err := checkEpochHas(next.Faults, rep); err != nil {
				out.failed++
				fmt.Fprintln(logw, "fault-churn:", err)
			}
			if ep.Table != nil && ep.Generation != warmed {
				st := ep.Table.Stats()
				warmHits += st.WarmHits
				coldFills += st.ColdFills
			}
			ep = next
			lats = append(lats, lat)
		}
		reporting := time.Since(phase)
		stop.Store(true)
		wg.Wait()

		// Latency statistics cover complete script cycles only, so every
		// run weighs each report of the script equally; a run too short
		// to complete a cycle keeps its partial one.
		if complete || out.work == 0 {
			for _, l := range lats {
				out.lat.add(l)
			}
			out.work += float64(len(lats))
			out.wall += reporting
			out.readLat.merge(&rl.lat)
		}
		reads += rl.recvd
		stale += rl.stale
		out.attempted += rl.sent
		out.failed += rl.sent - rl.recvd
		if rl.err != nil {
			fmt.Fprintln(logw, "fault-churn: reader:", rl.err)
		}
		met := d.srv.Metrics()
		reports += met.FaultReports.Load()
		recomputes += met.Recomputes.Load() - 1 // the first builds the base epoch

		// The cycle's final epoch must hold a valid lamb set, the same one
		// every run of this script reaches.
		if err := core.VerifyLambSet(ep.Faults, orders, ep.Lambs); err != nil {
			out.failed++
			fmt.Fprintln(logw, "fault-churn: final epoch:", err)
		}
		if complete || out.heapMiB == 0 {
			out.heapMiB = liveHeapMiB()
		}
		if complete {
			if dg := lambsDigest(ep.Lambs); final == 0 {
				final = dg
			} else if dg != final {
				out.failed++
				fmt.Fprintf(logw, "fault-churn: cycle %d reached a different lamb set than the first\n", cycle)
			}
		}
		d.close()
		if !complete {
			break
		}
	}
	gc1 := readGC()
	out.gc = gcSnap{cycles: gc1.cycles - gc0.cycles, pause: gc1.pause - gc0.pause}
	out.layer["server.reports_per_recompute"] = float64(reports) / float64(max(recomputes, 1))
	out.layer["server.stale_answer_share"] = float64(stale) / float64(max(reads, 1))
	out.layer["classtable.warm_slot_share"] = float64(warmHits) / float64(max(warmHits+coldFills, 1))
	out.layer["bench.poll_interval_us"] = float64(pollTotal) / float64(max(pollN, 1)) / 1e3
	return out, nil
}
