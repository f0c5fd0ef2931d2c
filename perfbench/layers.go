package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"lambmesh/internal/campaign"
	"lambmesh/internal/classtable"
	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/server"
	"lambmesh/internal/wire"
	"lambmesh/internal/wormhole"
)

// probeSpecs are the per-layer metrics the traced pass measures by timing
// calls into each module's public functions on the workloads' inputs.
var probeSpecs = []metricSpec{
	{"wire.codec_ns", "ns"},
	{"wire.bytes_per_query", "B"},
	{"wire.server_writes_per_query", "count"},
	{"wire.server_reads_per_query", "count"},
	{"server.query_ns_p50", "ns"},
	{"server.query_ns_p99", "ns"},
	{"server.allocs_per_query", "count"},
	{"server.stale_answer_share", "ratio"},
	{"server.reports_per_recompute", "ratio"},
	{"classtable.classify_ns", "ns"},
	{"classtable.lookup_warm_ns", "ns"},
	{"classtable.lookup_cold_ns", "ns"},
	{"classtable.build_ms", "ms"},
	{"classtable.ses", "count"},
	{"classtable.des", "count"},
	{"classtable.warm_slot_share", "ratio"},
	{"routing.oracle_build_ms", "ms"},
	{"routing.oracle_route_ns", "ns"},
	{"core.addfaults_incremental_ms", "ms"},
	{"core.addfaults_full_ms", "ms"},
	{"core.partition_ms", "ms"},
	{"core.reach_ms", "ms"},
	{"core.vcover_ms", "ms"},
	{"core.incremental_share", "ratio"},
	{"core.lamb1count_us", "us"},
	{"campaign.trial_us", "us"},
	{"campaign.allocs_per_trial", "count"},
	{"campaign.busy_share", "ratio"},
	{"wormhole.workload_gen_ms", "ms"},
	{"wormhole.engine_ns_per_cycle_light", "ns"},
	{"wormhole.engine_ns_per_cycle_saturated", "ns"},
	{"wormhole.engine_ns_per_flit", "ns"},
	{"wormhole.allocs_per_cycle", "count"},
	{"wormhole.sim_cycles", "count"},
	{"wormhole.delivered_packets", "count"},
	{"par.busy_share", "ratio"},
	{"bench.poll_interval_us", "us"},
}

// spanNames lists, per workload, the spans its traced run records; the
// traced pass reports each one's mean self time.
var spanNames = map[string][]string{
	"route-query":   {"wire.batch", "server.query"},
	"fault-churn":   {"server.report", "server.report_faults", "wire.batch", "server.query"},
	"campaign":      {"campaign.run"},
	"wormsim-sweep": {"par.cell", "wormhole.generate", "wormhole.engine"},
}

// layerSpecs is every metric of the traced pass: the probes, then per
// workload its GC work, its tracing overhead and the self time of each span.
func layerSpecs() []metricSpec {
	specs := append([]metricSpec(nil), probeSpecs...)
	for _, w := range workloads {
		specs = append(specs,
			metricSpec{"gc.cycles." + w.name, "count"},
			metricSpec{"gc.pause_ms." + w.name, "ms"},
			metricSpec{"trace.overhead_p50_ms." + w.name, "ms"},
			metricSpec{"trace.overhead_throughput_pct." + w.name, "%"})
		for _, s := range spanNames[w.name] {
			specs = append(specs, metricSpec{"self_us." + w.name + "." + s, "us"})
		}
	}
	return specs
}

// tracedPass runs every workload for a short while untraced and then
// traced, writes the spans to spansPath, times the layer probes, and
// reports the per-layer metrics, which always cover every workload.
func tracedPass(seed int64, dur time.Duration, spansPath string, stderr io.Writer) (*report, error) {
	sub := max(dur/8, time.Second)
	if err := os.Remove(spansPath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	vals := map[string]float64{}
	var attempted, failed int64
	for _, w := range workloads {
		base, err := w.run(runOpts{seed: seed, dur: sub})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		tr := newTracer()
		traced, err := w.run(runOpts{seed: seed, dur: sub, tr: tr})
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
		attempted += base.attempted + traced.attempted
		failed += base.failed + traced.failed
		be, te := base.e2e(), traced.e2e()
		vals["gc.cycles."+w.name] = float64(base.gc.cycles)
		vals["gc.pause_ms."+w.name] = ms(base.gc.pause)
		vals["trace.overhead_p50_ms."+w.name] = te["latency_p50_ms"] - be["latency_p50_ms"]
		vals["trace.overhead_throughput_pct."+w.name] = 100 * (be["throughput_per_s"] - te["throughput_per_s"]) / be["throughput_per_s"]
		for k, v := range base.layer {
			vals[k] = v
		}
		for name, us := range selfTimes(tr.spans) {
			vals["self_us."+w.name+"."+name] = us
		}
		if tr.dropped > 0 {
			fmt.Fprintf(stderr, "perfbench: %s: %d spans dropped past the in-memory limit\n", w.name, tr.dropped)
		}
		if err := writeSpans(spansPath, w.name, tr.spans); err != nil {
			return nil, err
		}
	}
	pa, pf, err := probe(seed, vals)
	if err != nil {
		return nil, err
	}
	return newReport(attempted+pa, failed+pf, layerSpecs(), vals)
}

// probe times calls into each module's public functions on the workloads'
// inputs and stores the per-layer values in vals. It returns the checked
// operations it attempted and how many failed.
func probe(seed int64, vals map[string]float64) (attempted, failed int64, err error) {
	for _, p := range []func(int64, map[string]float64) (int64, int64, error){
		probeQuery, probeRecompute, probeCampaign, probeWormhole,
	} {
		a, f, err := p(seed, vals)
		if err != nil {
			return 0, 0, err
		}
		attempted += a
		failed += f
	}
	return attempted, failed, nil
}

const probePairs = 50_000

// probeQuery covers the query path on the route-query input: wire codec and
// syscalls, the server's wire backend, the class table and the oracle.
func probeQuery(seed int64, vals map[string]float64) (int64, int64, error) {
	m, faults := routeQueryInput(seed, 0)
	orders := routing.UniformAscending(2, 2)
	srv, err := server.New(server.Config{Mesh: m, Orders: orders, InitialFaults: faults, Workers: loadConns})
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	ep := srv.Epoch()
	g := &pairGen{rng: rngFor(seed, streamProbe, 0), surv: survivorsOf(ep)}
	src, dst := make([]mesh.Coord, probePairs), make([]mesh.Coord, probePairs)
	for i := range src {
		src[i], dst[i] = g.next()
	}

	b := srv.WireBackend()
	answers := make([]wire.Answer, probePairs)
	for i := range answers {
		b.Query(src[i], dst[i], &answers[i])
	}
	lat := make([]float64, probePairs)
	var ans wire.Answer
	for i := range lat {
		t0 := time.Now()
		b.Query(src[i], dst[i], &ans)
		lat[i] = float64(time.Since(t0))
	}
	vals["server.query_ns_p50"] = quantile(lat, 0.50)
	vals["server.query_ns_p99"] = quantile(lat, 0.99)
	k := 0
	vals["server.allocs_per_query"] = testing.AllocsPerRun(1000, func() {
		b.Query(src[k%probePairs], dst[k%probePairs], &ans)
		k++
	})

	var req, resp []byte
	var ps, pt []int
	var back wire.Answer
	t0 := time.Now()
	for i := range src {
		req, _ = wire.AppendRouteReq(req[:0], src[i], dst[i])
		_, p, _, _ := wire.DecodeFrame(req)
		ps, pt, _ = wire.ParseRouteReq(p, ps, pt)
		resp, _ = wire.AppendRouteResp(resp[:0], &answers[i], m.Dims())
		_, p, _, _ = wire.DecodeFrame(resp)
		wire.ParseRouteResp(p, &back)
	}
	vals["wire.codec_ns"] = float64(time.Since(t0)) / probePairs

	tab := ep.Table
	t0 = time.Now()
	for i := range src {
		tab.ClassOf(src[i])
		tab.ClassOf(dst[i])
	}
	vals["classtable.classify_ns"] = float64(time.Since(t0)) / (2 * probePairs)
	var q classtable.Scratch
	t0 = time.Now()
	for i := range src {
		tab.Lookup(src[i], dst[i], &q)
	}
	vals["classtable.lookup_warm_ns"] = float64(time.Since(t0)) / probePairs
	st := tab.Stats()
	vals["classtable.ses"], vals["classtable.des"] = float64(st.SESs), float64(st.DESs)

	// Cold lookups: the first touch of every class pair on a fresh table.
	cold, err := classtable.New(ep.Faults, orders, loadConns)
	if err != nil {
		return 0, 0, err
	}
	ses, des := classReps(tab, g.surv)
	var n int
	t0 = time.Now()
	for _, s := range ses {
		for _, t := range des {
			if s != nil && t != nil && !s.Equal(t) {
				cold.Lookup(s, t, &q)
				n++
			}
		}
	}
	vals["classtable.lookup_cold_ns"] = float64(time.Since(t0)) / float64(max(n, 1))

	const oraclePairs = 5000
	t0 = time.Now()
	for i := 0; i < oraclePairs; i++ {
		routing.ChooseRouteK(ep.Oracle, orders, src[i], dst[i], nil)
	}
	vals["routing.oracle_route_ns"] = float64(time.Since(t0)) / oraclePairs

	// The wire path's bytes and syscalls, counted on the connections.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	cl := &countListener{Listener: l}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wire.Serve(cl, b)
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close()
		<-done
		return 0, 0, err
	}
	cc := &countConn{Conn: conn}
	c := wire.NewClient(cc)
	var attempted, failed int64
	const wirePairs = 20_000
	for i := 0; i < wirePairs; i += pipelineDepth {
		for j := i; j < i+pipelineDepth; j++ {
			c.Send(src[j], dst[j])
		}
		c.Flush()
		for j := i; j < i+pipelineDepth; j++ {
			attempted++
			if err := c.Recv(&ans); err != nil || ans.Hops != answers[j].Hops || ans.Code != answers[j].Code {
				failed++
			}
		}
	}
	c.Close()
	l.Close()
	<-done
	vals["wire.bytes_per_query"] = float64(cc.bytes.Load()) / wirePairs
	vals["wire.server_writes_per_query"] = float64(cl.writes.Load()) / wirePairs
	vals["wire.server_reads_per_query"] = float64(cl.reads.Load()) / wirePairs
	return attempted, failed, nil
}

// survivorsOf lists the epoch's good nodes that are not lambs.
func survivorsOf(ep *server.Epoch) []mesh.Coord {
	var out []mesh.Coord
	m := ep.Faults.Mesh()
	m.ForEachNode(func(c mesh.Coord) {
		if !ep.Faults.NodeFaulty(c) && !ep.IsLamb(c) {
			out = append(out, c.Clone())
		}
	})
	return out
}

// countConn counts the bytes a connection moves in both directions.
type countConn struct {
	net.Conn
	bytes atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// countListener counts the Read and Write calls on every accepted
// connection: the server's syscalls.
type countListener struct {
	net.Listener
	reads, writes atomic.Int64
}

func (l *countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &callConn{Conn: c, l: l}, nil
}

type callConn struct {
	net.Conn
	l *countListener
}

func (c *callConn) Read(p []byte) (int, error) {
	c.l.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *callConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

// probeRecompute replays one fault-churn script through a Reconfigurer and
// rebuilds each epoch's oracle and class table.
func probeRecompute(seed int64, vals map[string]float64) (int64, int64, error) {
	m, base, script := churnInput()
	orders := routing.UniformAscending(2, 2)
	rec, err := core.NewReconfigurer(m, orders, false)
	if err != nil {
		return 0, 0, err
	}
	rec.Workers = loadConns
	var inc, full, part, reach, vcover, oracle, build []float64
	var prev *classtable.Table
	step := func(nodes []mesh.Coord) error {
		t0 := time.Now()
		if _, err := rec.AddFaults(nodes, nil); err != nil {
			return err
		}
		d := ms(time.Since(t0))
		ph := rec.LastPhases()
		if ph.Incremental {
			inc = append(inc, d)
		} else {
			full = append(full, d)
		}
		part = append(part, ms(ph.Partition))
		reach = append(reach, ms(ph.Reach))
		vcover = append(vcover, ms(ph.VCover))
		snap := rec.Faults().Clone()
		t0 = time.Now()
		routing.NewOracle(snap)
		oracle = append(oracle, ms(time.Since(t0)))
		t0 = time.Now()
		tab, err := classtable.NewFrom(snap, orders, loadConns, prev)
		if err != nil {
			return err
		}
		build = append(build, ms(time.Since(t0)))
		prev = tab
		return nil
	}
	if err := step(base.NodeFaults()); err != nil {
		return 0, 0, err
	}
	for _, rep := range script {
		if err := step(rep); err != nil {
			return 0, 0, err
		}
	}
	vals["core.addfaults_incremental_ms"] = mean(inc)
	vals["core.addfaults_full_ms"] = mean(full)
	vals["core.partition_ms"] = mean(part)
	vals["core.reach_ms"] = mean(reach)
	vals["core.vcover_ms"] = mean(vcover)
	vals["core.incremental_share"] = float64(len(inc)) / float64(len(script))
	vals["routing.oracle_build_ms"] = mean(oracle)
	vals["classtable.build_ms"] = mean(build)
	var failed int64
	if err := core.VerifyLambSet(rec.Faults(), orders, rec.Lambs()); err != nil {
		failed++
		fmt.Fprintln(logw, "probe: replayed script:", err)
	}
	return 1, failed, nil
}

// probeCampaign times the campaign's trial loop and its solver on draws
// like the campaign's.
func probeCampaign(seed int64, vals map[string]float64) (int64, int64, error) {
	rng := rngFor(seed, streamProbe, 1)
	solver := core.NewSolver()
	var lamb1 []float64
	for i := 0; i < 400; i++ {
		m, n := mesh.MustNew(16, 16), 8
		if i%2 == 1 {
			m, n = mesh.MustNew(32, 32), 31
		}
		f := mesh.RandomNodeFaults(m, n, rng)
		t0 := time.Now()
		if _, _, err := solver.Lamb1Count(f, routing.UniformAscending(2, 2), 1); err != nil {
			return 0, 0, err
		}
		lamb1 = append(lamb1, float64(time.Since(t0))/1e3)
	}
	vals["core.lamb1count_us"] = mean(lamb1)

	tr, err := campaign.NewTrialRunner(campaignSpec(seed))
	if err != nil {
		return 0, 0, err
	}
	// Trials run point by point, as campaign.Run's shards do.
	const trials = 200
	var us, allocs []float64
	for p := 0; p < tr.Points(); p++ {
		k := int64(0)
		trial := func() {
			if err == nil {
				err = tr.Trial(p, k)
			}
			k++
		}
		for i := 0; i < 20; i++ {
			trial()
		}
		t0 := time.Now()
		for i := 0; i < trials; i++ {
			trial()
		}
		us = append(us, float64(time.Since(t0))/1e3/trials)
		allocs = append(allocs, testing.AllocsPerRun(trials, trial))
		if err != nil {
			return 0, 0, err
		}
	}
	vals["campaign.trial_us"] = mean(us)
	vals["campaign.allocs_per_trial"] = mean(allocs)
	return 0, 0, nil
}

// probeWormhole runs one light and one saturated cell on the wormsim-sweep
// input and splits their cost between workload generation and the engine.
func probeWormhole(seed int64, vals map[string]float64) (int64, int64, error) {
	sim, err := newCellSim(wormsimInput(seed))
	if err != nil {
		return 0, 0, err
	}
	cellSeed := rngFor(seed, streamProbe, 2).Int63()
	light, lt, err := sim.run(0.004, cellSeed)
	if err != nil {
		return 0, 0, err
	}
	sat, sa, err := sim.run(satRate, cellSeed)
	if err != nil {
		return 0, 0, err
	}
	vals["wormhole.workload_gen_ms"] = (ms(lt.gen()) + ms(sa.gen())) / 2
	vals["wormhole.engine_ns_per_cycle_light"] = float64(lt.engine()) / float64(light.Cycles)
	vals["wormhole.engine_ns_per_cycle_saturated"] = float64(sa.engine()) / float64(sat.Cycles)
	vals["wormhole.engine_ns_per_flit"] = float64(sa.engine()) / float64(sat.Delivered*cellFlits)
	vals["wormhole.sim_cycles"] = float64(light.Cycles + sat.Cycles)
	vals["wormhole.delivered_packets"] = float64(light.Delivered + sat.Delivered)

	// Allocations of the cycle loop alone: rerun the light cell's engine.
	packets, _, err := wormhole.GenerateStrategyWorkload(sim.strat, wormhole.WorkloadSpec{
		Pattern: wormhole.PatternUniform, Rate: 0.004, PacketFlits: cellFlits, Cycles: cellWarmup + cellMeasure,
	}, cellNet.VirtualChannels, rngFor(seed, streamProbe, 3))
	if err != nil {
		return 0, 0, err
	}
	eng, err := wormhole.NewEngine(sim.strat.Faults(), wormhole.EngineConfig{
		Net: cellNet, WarmupCycles: cellWarmup, MeasureCycles: cellMeasure, Nodes: sim.nodes,
	}, packets)
	if err != nil {
		return 0, 0, err
	}
	cycles := eng.Run().Cycles
	allocs := testing.AllocsPerRun(1, func() {
		eng.Reset()
		eng.Run()
	})
	vals["wormhole.allocs_per_cycle"] = allocs / float64(cycles)
	var failed int64
	for _, r := range []wormhole.EngineResult{light, sat} {
		if r.Deadlocked {
			failed++
		}
	}
	return 2, failed, nil
}
