package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lambmesh/internal/campaign"
	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/server"
	"lambmesh/internal/wire"
	"lambmesh/internal/wormhole"
)

func TestMain(m *testing.M) {
	logw = io.Discard
	os.Exit(m.Run())
}

// checkReport fails unless rep carries exactly specs, with their units,
// and no failed operation.
func checkReport(t *testing.T, rep *report, specs []metricSpec) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(specs) {
		t.Errorf("%d metrics, want %d", len(rep.Metrics), len(specs))
	}
	for _, s := range specs {
		v, ok := rep.Metrics[s.name]
		if !ok || v.Unit != s.unit {
			t.Errorf("metric %s: got %+v, want unit %s", s.name, v, s.unit)
		}
	}
}

func TestShortRunEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := w.run(runOpts{seed: 5, dur: 300 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := newReport(out.attempted, out.failed, e2eSpecs, out.e2e())
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, e2eSpecs)
			for name, v := range rep.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, v.Value)
				}
			}
		})
	}
}

func TestTracedPassReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	rep, err := tracedPass(5, time.Second, spans, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, layerSpecs())
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range spanNames {
		for _, n := range names {
			if !strings.Contains(string(b), `"name":"`+n+`"`) {
				t.Errorf("span %s missing from the span file", n)
			}
		}
	}
}

func TestRunOutputContract(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"--workload", "campaign", "--seed", "3", "--seconds", "0.2", "--trace", "0"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep struct {
		Correct   bool                       `json:"correct"`
		Attempted int64                      `json:"attempted"`
		Failed    int64                      `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || len(rep.Metrics) != len(e2eSpecs) {
		t.Errorf("last line: %s", lines[len(lines)-1])
	}
	if err := run([]string{"--workload", "nope"}, &out, &errOut); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program reports %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %+v, program reports %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, e2eSpecs)
	same("per_layer", cfg.PerLayer, layerSpecs())
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d = %s, program has %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestRouteCheckCatchesCorruptAnswer(t *testing.T) {
	m, faults := routeQueryInput(2, 0)
	srv, err := server.New(server.Config{Mesh: m, Orders: routing.UniformAscending(2, 2), InitialFaults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	surv := survivorsOf(srv.Epoch())
	g := &pairGen{rng: rngFor(2, streamProbe, 9), surv: surv}
	b := srv.WireBackend()
	checked := 0
	for i := 0; i < 200; i++ {
		s, d := g.next()
		var a wire.Answer
		b.Query(s, d, &a)
		good := answerSample{s, d, a}
		if err := checkAnswer(srv, good); err != nil {
			t.Fatal(err)
		}
		if a.Code != wire.CodeFound {
			continue
		}
		checked++
		for _, corrupt := range []func(*wire.Answer){
			func(a *wire.Answer) { a.Hops++ },
			func(a *wire.Answer) { a.Turns++ },
			func(a *wire.Answer) { a.Gen++ },
			func(a *wire.Answer) { a.Code = wire.CodeNoRoute },
			func(a *wire.Answer) {
				if len(a.Via) > 0 {
					a.Via[0] ^= 1
				} else {
					a.Hops++
				}
			},
		} {
			bad := good
			bad.ans.Via = append([]int(nil), a.Via...)
			corrupt(&bad.ans)
			if checkAnswer(srv, bad) == nil {
				t.Fatalf("corrupted answer %+v for %v->%v passed", bad.ans, s, d)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no found routes sampled")
	}
}

func TestChurnChecksCatchCorruptEpoch(t *testing.T) {
	m, base, script := churnInput()
	orders := routing.UniformAscending(2, 2)
	if err := checkEpochHas(base, base.NodeFaults()); err != nil {
		t.Fatal(err)
	}
	if checkEpochHas(base, script[0]) == nil {
		t.Error("a report missing from the epoch passed")
	}
	rec, err := core.NewReconfigurer(m, orders, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.AddFaults(base.NodeFaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyLambSet(base, orders, res.Lambs); err != nil {
		t.Fatal(err)
	}
	if len(res.Lambs) == 0 {
		t.Fatal("base set needs lambs for this test")
	}
	short := res.Lambs[1:]
	if core.VerifyLambSet(base, orders, short) == nil {
		t.Error("a lamb set missing a lamb passed")
	}
	if lambsDigest(short) == lambsDigest(res.Lambs) {
		t.Error("lamb digests of different sets agree")
	}
}

func TestCampaignCheckCatchesCorruptDigest(t *testing.T) {
	r, err := campaign.Run(context.Background(), campaignSpec(campaignRefSeed), campaign.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCampaign(r, campaignRefDigest); err != nil {
		t.Fatalf("recorded digest: %v", err)
	}
	if checkCampaign(r, campaignRefDigest^1) == nil {
		t.Error("a wrong digest passed")
	}
	r.Points[0].Agg.Connected++
	if checkCampaign(r, campaignRefDigest) == nil {
		t.Error("corrupted aggregates passed")
	}
}

func TestCellCheckCatchesCorruptStats(t *testing.T) {
	ref, err := newCellSim(wormsimInput(cellRefSeed))
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := ref.run(0.004, cellRefSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCell(r, cellRefLightDigest); err != nil {
		t.Fatalf("recorded digest: %v", err)
	}
	for _, corrupt := range []func(*wormhole.EngineResult){
		func(r *wormhole.EngineResult) { r.Cycles++ },
		func(r *wormhole.EngineResult) { r.Delivered-- },
		func(r *wormhole.EngineResult) { r.AcceptedFlitRate *= 1.0000001 },
		func(r *wormhole.EngineResult) { r.MeanLatency += 1e-9 },
	} {
		bad := r
		corrupt(&bad)
		if checkCell(bad, cellRefLightDigest) == nil {
			t.Errorf("corrupted cell %+v passed", bad)
		}
	}
}

// TestCellIsRunSweepCell pins the workload's cell to wormhole.RunSweep's
// static-strategy cell: the same rate and seed give the same statistics.
func TestCellIsRunSweepCell(t *testing.T) {
	sim, err := newCellSim(wormsimInput(4))
	if err != nil {
		t.Fatal(err)
	}
	const rate, seed = 0.003, 77
	r, _, err := sim.run(rate, seed)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := wormhole.RunSweep(sim.strat.Faults(), routing.UniformAscending(2, 2), nil, wormhole.SweepSpec{
		Rates: []float64{rate}, Trials: 1, Pattern: wormhole.PatternUniform, PacketFlits: cellFlits,
		Warmup: cellWarmup, Measure: cellMeasure, Net: cellNet, Seed: seed, Workers: 1,
		Strategy: func(*mesh.FaultSet) (wormhole.RouteStrategy, error) { return sim.strat, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.AcceptedFlitRate != r.AcceptedFlitRate || p.OfferedFlitRate != r.OfferedFlitRate ||
		p.MeanLatency != r.MeanLatency || int(p.P99Latency) != r.P99Latency || p.MaxLatency != r.MaxLatency {
		t.Errorf("RunSweep %+v, cell %+v", p, r)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{name: "root", id: 1, start: 0, end: 100},
		{name: "kid", id: 2, parent: 1, start: 10, end: 30},
		{name: "kid", id: 3, parent: 1, start: 20, end: 40},  // overlaps the first
		{name: "kid", id: 4, parent: 1, start: 90, end: 120}, // runs past the parent
	}
	got := selfTimes(spans)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if want := (100.0 - 30 - 10) / 1e3; !near(got["root"], want) {
		t.Errorf("root self = %v µs, want %v", got["root"], want)
	}
	if want := (20.0 + 20 + 30) / 3 / 1e3; !near(got["kid"], want) {
		t.Errorf("kid self = %v µs, want %v", got["kid"], want)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	n := 3 * rawCap
	xs := make([]float64, n)
	for i := range xs {
		d := time.Duration(1000 + i*37%50000)
		h.add(d)
		xs[i] = float64(d)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := quantile(append([]float64(nil), xs...), q)
		if got := h.quantile(q); got < exact*0.98 || got > exact*1.02 {
			t.Errorf("q%.2f = %.0f, exact %.0f", q, got, exact)
		}
	}
	var small hist
	for _, x := range []time.Duration{5, 1, 3} {
		small.add(x)
	}
	if got := small.quantile(0.5); got != 3 {
		t.Errorf("small median = %v, want 3", got)
	}
}
