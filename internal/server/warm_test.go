package server

import (
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"lambmesh/internal/mesh"
)

// metricValue extracts the first sample of the named metric from a
// Prometheus text page, -1 if absent.
func metricValue(t *testing.T, page, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(page)
	if m == nil {
		return -1
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

// The epoch swap carries the class table's working set forward: slots the
// previous epoch served stay warm across the swap, the recompute runs
// incrementally, and /metrics reports the phase split and warm-hit ratio.
func TestEpochSwapWarmStart(t *testing.T) {
	s, ts := startHTTP(t, 8, 8)
	if s.RouteSource() != "classtable" {
		t.Skip("class table unsupported in this configuration")
	}
	if err := s.ReportFaults([]mesh.Coord{mesh.C(3, 3)}, nil); err != nil {
		t.Fatal(err)
	}
	waitGeneration(t, s, 1)
	// Exercise the epoch so its table has a working set to migrate.
	for si := 0; si < 8; si++ {
		for di := 0; di < 8; di++ {
			s.Route(mesh.C(si, 0), mesh.C(di, 7))
		}
	}
	if err := s.ReportFaults([]mesh.Coord{mesh.C(6, 1)}, nil); err != nil {
		t.Fatal(err)
	}
	waitGeneration(t, s, 2)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	page := string(raw)

	if v := metricValue(t, page, "lambd_recomputes_incremental_total"); v != 1 {
		t.Errorf("incremental recomputes = %v, want 1 (gen 1 cold, gen 2 patched)", v)
	}
	if v := metricValue(t, page, "lambd_classtable_warm_slots"); v <= 0 {
		t.Errorf("warm slots = %v, want > 0 after an exercised swap", v)
	}
	for _, phase := range []string{"partition", "reach", "vcover", "table"} {
		if !strings.Contains(page, `lambd_recompute_phase_seconds{phase="`+phase+`"}`) {
			t.Errorf("missing phase %q in:\n%s", phase, page)
		}
	}
	if v := metricValue(t, page, "lambd_recompute_phase_seconds"); v < 0 {
		t.Error("phase gauges absent")
	}

	// Queries against the migrated working set are warm hits.
	for si := 0; si < 8; si++ {
		s.Route(mesh.C(si, 0), mesh.C(si, 7))
	}
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw2, _ := io.ReadAll(resp2.Body)
	page = string(raw2)
	if v := metricValue(t, page, "lambd_classtable_warm_hits_total"); v <= 0 {
		t.Errorf("warm hits = %v, want > 0", v)
	}
	if v := metricValue(t, page, "lambd_classtable_warm_hit_ratio"); v <= 0 || v > 1 {
		t.Errorf("warm hit ratio = %v", v)
	}
}

// Route answers must be identical across a warm swap: pin a sample of
// pre-swap answers and re-ask after the swap on the unchanged region.
func TestEpochSwapAnswersConsistent(t *testing.T) {
	s, _ := startHTTP(t, 8, 8)
	if err := s.ReportFaults([]mesh.Coord{mesh.C(3, 3)}, nil); err != nil {
		t.Fatal(err)
	}
	waitGeneration(t, s, 1)
	type pin struct {
		src, dst mesh.Coord
		hops     int
		found    bool
	}
	var pins []pin
	for si := 0; si < 8; si++ {
		src, dst := mesh.C(si, 0), mesh.C(7-si, 7)
		a := s.Route(src, dst)
		hops := 0
		if a.Found {
			hops = a.Route.Hops()
		}
		pins = append(pins, pin{src, dst, hops, a.Found})
	}
	// A far-corner fault leaves these routes' regions untouched.
	if err := s.ReportFaults(nil, []mesh.Link{{From: mesh.C(0, 0), Dim: 0, Dir: 1}}); err != nil {
		t.Fatal(err)
	}
	waitGeneration(t, s, 2)
	for _, p := range pins {
		a := s.Route(p.src, p.dst)
		if a.Found != p.found {
			t.Fatalf("route %v->%v found flipped across swap", p.src, p.dst)
		}
		if a.Found && a.Route.Hops() != p.hops {
			t.Fatalf("route %v->%v hops %d != %d across swap", p.src, p.dst, a.Route.Hops(), p.hops)
		}
	}
}

// The phase metrics render in WriteTo even before any recompute ran.
func TestMetricsPhaseRendering(t *testing.T) {
	var m Metrics
	m.PhasePartitionNanos.Store(int64(2 * time.Millisecond))
	m.RecomputesIncremental.Store(3)
	var b strings.Builder
	m.WriteTo(&b, 1, time.Second, 0)
	page := b.String()
	if !strings.Contains(page, `lambd_recompute_phase_seconds{phase="partition"} 0.002`) {
		t.Errorf("partition phase missing:\n%s", page)
	}
	if !strings.Contains(page, "lambd_recomputes_incremental_total 3") {
		t.Errorf("incremental counter missing:\n%s", page)
	}
}
