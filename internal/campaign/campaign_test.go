package campaign

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lambmesh/internal/stats"
)

// testSpec is a small but non-trivial campaign: 2 meshes x 2 models x 2
// processes, multiple shards per point.
func testSpec() Spec {
	return Spec{
		Meshes: [][]int{{5, 5}, {4, 4}},
		Models: []Model{ModelNode, ModelMixed},
		Procs: []ProcSpec{
			{Proc: ProcFixed, Count: 3},
			{Proc: ProcMTBF, Mission: 50, Theta: 400},
		},
		K:         2,
		Trials:    24,
		Seed:      42,
		ShardSize: 8,
	}
}

// strip removes the non-deterministic members (measured wall times) so the
// remainder can be byte-compared.
func strip(t *testing.T, r *Result) string {
	t.Helper()
	c := *r
	c.Elapsed = 0
	c.TrialsRun = 0 // per-run metadata, not part of the campaign's result
	c.Points = append([]PointResult(nil), r.Points...)
	for i := range c.Points {
		c.Points[i].Agg.Recovery = stats.Welford{}
	}
	raw, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestRunDeterministicAcrossWorkers is the campaign's core guarantee:
// byte-identical results at any worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	var ref string
	for _, workers := range []int{1, 2, 4} {
		spec := testSpec()
		spec.Workers = workers
		res, err := Run(context.Background(), spec, Opts{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Complete {
			t.Fatalf("workers=%d: campaign incomplete", workers)
		}
		if res.TrialsRun != spec.Trials*int64(spec.Points()) {
			t.Fatalf("workers=%d: ran %d trials, want %d", workers, res.TrialsRun, spec.Trials*int64(spec.Points()))
		}
		s := strip(t, res)
		if ref == "" {
			ref = s
		} else if s != ref {
			t.Fatalf("workers=%d: results differ from workers=1", workers)
		}
	}
}

// TestRunAggregates sanity-checks the aggregated statistics of a completed
// campaign.
func TestRunAggregates(t *testing.T) {
	spec := testSpec()
	spec.Workers = 2
	res, err := Run(context.Background(), spec, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != spec.Points() {
		t.Fatalf("%d point results, want %d", len(res.Points), spec.Points())
	}
	for i, p := range res.Points {
		a := &p.Agg
		if a.Trials != spec.Trials {
			t.Fatalf("point %d: %d trials, want %d", i, a.Trials, spec.Trials)
		}
		if a.Connected < 0 || a.Connected > a.Trials {
			t.Fatalf("point %d: connected %d outside [0,%d]", i, a.Connected, a.Trials)
		}
		if a.Lambs.N != spec.Trials || a.Faults.N != spec.Trials || a.Recovery.N != spec.Trials {
			t.Fatalf("point %d: accumulator counts %+v", i, a)
		}
		if p.Proc.Proc == ProcFixed && a.Faults.Mean != float64(p.Proc.Count) {
			t.Fatalf("point %d: fixed process mean faults %v, want %d", i, a.Faults.Mean, p.Proc.Count)
		}
		if a.Lambs.Mean < 0 {
			t.Fatalf("point %d: negative mean lambs", i)
		}
		// Zero lambs <=> connected, so the zero bin must match.
		if a.LambHist.Zero != a.Connected {
			t.Fatalf("point %d: hist zero bin %d, connected %d", i, a.LambHist.Zero, a.Connected)
		}
	}
}

// TestCheckpointRoundTrip saves a mid-campaign snapshot, resumes from it,
// and requires the final result to be byte-identical to the uninterrupted
// run.
func TestCheckpointRoundTrip(t *testing.T) {
	spec := testSpec()
	spec.Workers = 2

	ref, err := Run(context.Background(), spec, Opts{})
	if err != nil {
		t.Fatal(err)
	}

	// Build the exact mid-campaign state the merger would have at cursor C:
	// shards [0, C) folded in shard order.
	const cut = 7 // mid-point, not a point boundary
	pts, ms, err := buildGrid(&spec)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorker(ms)
	aggs := make([]PointAgg, len(pts))
	spp := spec.shardsPerPoint()
	var agg PointAgg
	for s := int64(0); s < cut; s++ {
		if err := w.runShard(&spec, pts, s, &agg); err != nil {
			t.Fatal(err)
		}
		aggs[s/spp].Merge(&agg)
	}
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	if err := saveCheckpoint(path, &spec, cut, aggs); err != nil {
		t.Fatal(err)
	}

	res, err := Run(context.Background(), spec, Opts{Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("resumed campaign incomplete")
	}
	if want := spec.Trials*int64(spec.Points()) - cut*int64(spec.ShardSize); res.TrialsRun != want {
		t.Fatalf("resumed run executed %d trials, want %d", res.TrialsRun, want)
	}
	if strip(t, res) != strip(t, ref) {
		t.Fatal("resumed result differs from uninterrupted run")
	}

	// The completed campaign's checkpoint can itself resume: a no-op run.
	res2, err := Run(context.Background(), spec, Opts{Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.TrialsRun != 0 || !res2.Complete {
		t.Fatalf("no-op resume ran %d trials, complete=%v", res2.TrialsRun, res2.Complete)
	}
	if strip(t, res2) != strip(t, ref) {
		t.Fatal("no-op resume differs from uninterrupted run")
	}
}

// TestPauseAndResume exercises the duration-pause path end to end: a run
// whose deadline has already passed merges nothing, checkpoints, and a
// resume completes the campaign identically.
func TestPauseAndResume(t *testing.T) {
	spec := testSpec()
	spec.Workers = 2
	ref, err := Run(context.Background(), spec, Opts{})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	paused, err := Run(context.Background(), spec, Opts{Checkpoint: path, Duration: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if paused.Complete {
		t.Fatal("nanosecond-deadline run should pause")
	}

	res, err := Run(context.Background(), spec, Opts{Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("resumed campaign incomplete")
	}
	if strip(t, res) != strip(t, ref) {
		t.Fatal("paused+resumed result differs from uninterrupted run")
	}
}

// TestCancelledContext checks a cancelled context pauses rather than fails.
func TestCancelledContext(t *testing.T) {
	spec := testSpec()
	spec.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, spec, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("cancelled run should be incomplete")
	}
}

// TestCheckpointValidation covers the mismatch errors.
func TestCheckpointValidation(t *testing.T) {
	spec := testSpec()
	pts, _, err := buildGrid(&spec)
	if err != nil {
		t.Fatal(err)
	}
	aggs := make([]PointAgg, len(pts))
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if err := saveCheckpoint(path, &spec, 0, aggs); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(path, &spec); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	other := spec
	other.Seed++
	if _, err := loadCheckpoint(path, &other); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("seed change should invalidate the checkpoint, got %v", err)
	}
	// Workers is not identity: changing it must NOT invalidate.
	wk := spec
	wk.Workers = 7
	if _, err := loadCheckpoint(path, &wk); err != nil {
		t.Fatalf("worker count should not be part of the identity: %v", err)
	}
	if _, err := loadCheckpoint(filepath.Join(t.TempDir(), "missing"), &spec); err == nil {
		t.Fatal("missing checkpoint should error")
	}
	if _, err := loadCheckpoint("", &spec); err == nil {
		t.Fatal("empty path should error")
	}
}

// TestSpecValidation covers buildGrid's input checks.
func TestSpecValidation(t *testing.T) {
	base := testSpec()
	for name, mut := range map[string]func(*Spec){
		"empty meshes": func(s *Spec) { s.Meshes = nil },
		"empty models": func(s *Spec) { s.Models = nil },
		"empty procs":  func(s *Spec) { s.Procs = nil },
		"k zero":       func(s *Spec) { s.K = 0 },
		"no trials":    func(s *Spec) { s.Trials = 0 },
		"bad mesh":     func(s *Spec) { s.Meshes = [][]int{{0, 4}} },
		"bad proc":     func(s *Spec) { s.Procs = []ProcSpec{{Proc: ProcMTBF, Theta: -1, Mission: 1}} },
		// Failure probability so high the half-population cap would cut
		// off most of the count distribution: rejected, not truncated.
		"truncating proc": func(s *Spec) { s.Procs = []ProcSpec{{Proc: ProcMTBF, Theta: 1, Mission: 1e9}} },
	} {
		spec := base
		mut(&spec)
		if _, err := Run(context.Background(), spec, Opts{}); err == nil {
			t.Fatalf("%s: Run should reject the spec", name)
		}
	}
}

// TestProgressOutput checks the live progress line and final summary reach
// the writer.
func TestProgressOutput(t *testing.T) {
	spec := testSpec()
	spec.Workers = 1
	spec.Meshes = spec.Meshes[:1]
	spec.Models = spec.Models[:1]
	spec.Procs = spec.Procs[:1]
	var sb strings.Builder
	if _, err := Run(context.Background(), spec, Opts{Progress: &sb}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "trials/sec") {
		t.Fatalf("progress output missing summary: %q", sb.String())
	}
}

// TestRender smoke-tests every output format.
func TestRender(t *testing.T) {
	spec := testSpec()
	spec.Workers = 2
	res, err := Run(context.Background(), spec, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	table, err := res.Render("table", false)
	if err != nil || !strings.Contains(table, "P(conn)") {
		t.Fatalf("table render: %v\n%s", err, table)
	}
	if strings.Contains(table, "rec_ms") {
		t.Fatal("recovery columns must be gated behind timing")
	}
	timed, err := res.Render("table", true)
	if err != nil || !strings.Contains(timed, "rec_ms") {
		t.Fatalf("timing render: %v", err)
	}
	csv, err := res.Render("csv", false)
	if err != nil || !strings.Contains(csv, "5x5") {
		t.Fatalf("csv render: %v\n%s", err, csv)
	}
	js, err := res.Render("json", false)
	if err != nil || !strings.Contains(js, "\"points\"") {
		t.Fatalf("json render: %v", err)
	}
	if _, err := res.Render("bogus", false); err == nil {
		t.Fatal("unknown format should error")
	}
}
