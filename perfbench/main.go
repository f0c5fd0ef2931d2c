// Command perfbench is lambmesh's end-to-end benchmark. One invocation runs
// one workload for a fixed time and prints, as its last line of standard
// output, a JSON object with the operations attempted and failed, whether
// every correctness check passed, and the metrics:
//
//	perfbench --workload route-query --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (e2eSpecs). With
// --trace 1 the run is the traced pass instead: every workload runs briefly
// untraced and then traced, spans around each call into the program are
// kept in memory and written to --spans, and the metrics are the per-layer
// ones (layerSpecs). Every input is generated from --seed. README.md in this
// directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// logw receives diagnostics: failed checks and connection errors.
var logw io.Writer = os.Stderr

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// e2eSpecs are the end-to-end metrics every untraced run reports.
var e2eSpecs = []metricSpec{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"read_latency_p90_ms", "ms"},
	{"heap_live_mb", "MiB"},
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	run  func(o runOpts) (*outcome, error)
}

var workloads = []workload{
	{"route-query", runRouteQuery},
	{"fault-churn", runFaultChurn},
	{"campaign", runCampaign},
	{"wormsim-sweep", runWormsim},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOpts parameterizes one workload run.
type runOpts struct {
	seed int64
	dur  time.Duration // length of the timed phase
	tr   *tracer       // nil: untraced
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int64
	setups            []time.Duration // each set-up; setup_s is their median
	wall              time.Duration   // timed phase
	work              float64         // primary operations (wormsim: simulated cycles) done in wall
	lat               *hist           // primary operation latency
	segLat            []*hist         // per-segment primary latency; when set, it replaces lat
	readLat           *hist           // concurrent read latency; nil when the workload has no separate reads
	heapMiB           float64
	gc                gcSnap // GC cycles and pause during the timed phase
	layer             map[string]float64
}

// e2e turns an outcome into the end-to-end metric values.
func (o *outcome) e2e() map[string]float64 {
	setup := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setup[i] = d.Seconds()
	}
	read := o.latMs(0.90)
	if o.readLat != nil {
		read = o.readLat.quantile(0.90) / 1e6
	}
	return map[string]float64{
		"setup_s":             median(setup),
		"throughput_per_s":    o.work / o.wall.Seconds(),
		"latency_p50_ms":      o.latMs(0.50),
		"latency_p90_ms":      o.latMs(0.90),
		"latency_p99_ms":      o.latMs(0.99),
		"read_latency_p90_ms": read,
		"heap_live_mb":        o.heapMiB,
	}
}

// latMs returns the q-quantile of the primary latency in milliseconds; for
// a run made of segments, the median of the segments' q-quantiles.
func (o *outcome) latMs(q float64) float64 {
	if len(o.segLat) == 0 {
		return o.lat.quantile(q) / 1e6
	}
	xs := make([]float64, len(o.segLat))
	for i, h := range o.segLat {
		xs[i] = h.quantile(q)
	}
	return median(xs) / 1e6
}

// report is the result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(attempted, failed int64, specs []metricSpec, vals map[string]float64) (*report, error) {
	r := &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		r.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
		r.Failed++
		r.Correct = false
	}
	return r, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end run; 1: traced per-layer pass")
	spans := fs.String("spans", ".bench_build/perfbench-spans.jsonl", "file the traced pass writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, names)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	dur := time.Duration(*seconds * float64(time.Second))

	var rep *report
	var err error
	if *trace == 1 {
		rep, err = tracedPass(*seed, dur, *spans, stderr)
	} else {
		var out *outcome
		out, err = w.run(runOpts{seed: *seed, dur: dur})
		if err == nil {
			rep, err = newReport(out.attempted, out.failed, e2eSpecs, out.e2e())
		}
	}
	if err != nil {
		return err
	}
	return printReport(stdout, rep)
}

func printReport(w io.Writer, rep *report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
