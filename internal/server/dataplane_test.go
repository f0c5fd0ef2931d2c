package server

import (
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"

	"lambmesh/internal/classtable"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/wire"
)

// TestRouteSourceResolution pins plane selection: the class table exactly
// when classtable.Supported accepts the configuration, the per-pair cache
// otherwise, and a cache only on epochs without a table.
func TestRouteSourceResolution(t *testing.T) {
	s := newTestServer(t, 6, 6)
	if s.RouteSource() != "classtable" {
		t.Errorf("k=2 mesh resolved to %q", s.RouteSource())
	}
	if e := s.Epoch(); e.Table == nil || e.cache != nil {
		t.Errorf("classtable epoch: table %v, cache %v", e.Table, e.cache)
	}
	// k=3 is outside the classtable envelope.
	s3 := newKServer(t, 3, 6, 6)
	if s3.RouteSource() != "cache" {
		t.Errorf("k=3 resolved to %q", s3.RouteSource())
	}
	if e := s3.Epoch(); e.Table != nil || e.cache == nil {
		t.Errorf("cache epoch: table %v, cache %v", e.Table, e.cache)
	}
}

// TestDataPlanesAgree checks the class table against the oracle route
// (Epoch.route) on the same epoch, for every (src, dst) pair: answers and
// reasons must be byte-identical.
func TestDataPlanesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	faults := mesh.RandomNodeFaults(mesh.MustNew(9, 9), 6, rng)
	mesh.RandomLinkFaults(faults, 3, rng)
	orders := routing.UniformAscending(2, 2)
	s, err := New(Config{Mesh: mesh.MustNew(9, 9), Orders: orders, InitialFaults: faults, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	e := s.Epoch()
	if e.Table == nil {
		t.Fatal("k=2 mesh epoch has no class table")
	}
	var q classtable.Scratch
	m := e.Faults.Mesh()
	m.ForEachNode(func(src mesh.Coord) {
		m.ForEachNode(func(dst mesh.Coord) {
			tr, treason := e.tableRoute(orders, src, dst, &q)
			or, oreason := e.route(orders, src, dst)
			if treason != oreason {
				t.Fatalf("%v->%v: reasons differ: table %q, oracle %q", src, dst, treason, oreason)
			}
			if !reflect.DeepEqual(tr, or) {
				t.Fatalf("%v->%v: routes differ:\ntable  %+v\noracle %+v", src, dst, tr, or)
			}
		})
	})
}

// TestWireBackendCompact drives routeCompact through both data planes (the
// class table at k=2, the cache at k=3) and checks it against the full
// Route answers.
func TestWireBackendCompact(t *testing.T) {
	for _, k := range []int{2, 3} {
		s := newKServer(t, k, 8, 8)
		t.Run(s.RouteSource(), func(t *testing.T) {
			if err := s.ReportFaults([]mesh.Coord{mesh.C(3, 3), mesh.C(4, 5)}, nil); err != nil {
				t.Fatal(err)
			}
			waitGeneration(t, s, 1)
			b := s.WireBackend()
			if b.Dims() != 2 {
				t.Fatalf("dims = %d", b.Dims())
			}
			var ans wire.Answer
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < 1500; i++ {
				src := mesh.C(rng.Intn(9)-1, rng.Intn(8)) // sometimes out of mesh
				dst := mesh.C(rng.Intn(8), rng.Intn(8))
				b.Query(src, dst, &ans)
				full := s.Route(src, dst)
				if full.Found != (ans.Code == wire.CodeFound) {
					t.Fatalf("%v->%v: compact code %d, full %+v", src, dst, ans.Code, full)
				}
				if !full.Found {
					switch {
					case strings.Contains(full.Reason, "src") && ans.Code != wire.CodeBadSrc:
						t.Fatalf("%v->%v: code %d for reason %q", src, dst, ans.Code, full.Reason)
					case strings.Contains(full.Reason, "no fault-free") && ans.Code != wire.CodeNoRoute:
						t.Fatalf("%v->%v: code %d for reason %q", src, dst, ans.Code, full.Reason)
					}
					continue
				}
				if ans.Hops != full.Route.Hops() || ans.Turns != full.Route.Turns() {
					t.Fatalf("%v->%v: compact %d/%d, full %d/%d",
						src, dst, ans.Hops, ans.Turns, full.Route.Hops(), full.Route.Turns())
				}
				if ans.NVias != len(full.Route.Vias) || len(ans.Via) != ans.NVias*2 {
					t.Fatalf("%v->%v: vias %d/%v vs %v", src, dst, ans.NVias, ans.Via, full.Route.Vias)
				}
				for vi, v := range full.Route.Vias {
					if ans.Via[vi*2] != v[0] || ans.Via[vi*2+1] != v[1] {
						t.Fatalf("%v->%v: via %d = %v, want %v", src, dst, vi, ans.Via, v)
					}
				}
			}
		})
	}
}

// TestWireEndToEnd serves the binary protocol on a real listener and
// queries it with the wire client, pipelined.
func TestWireEndToEnd(t *testing.T) {
	s := newTestServer(t, 8, 8)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go wire.Serve(l, s.WireBackend())

	c, err := wire.Dial(l.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var ans wire.Answer
	if err := c.Route([]int{0, 0}, []int{7, 7}, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Code != wire.CodeFound || ans.Hops != 14 || ans.NVias != 1 {
		t.Fatalf("corner route: %+v", ans)
	}

	// Pipelined batch: all answers arrive, in order.
	const depth = 64
	for i := 0; i < depth; i++ {
		if err := c.Send([]int{i % 8, 0}, []int{7, i % 8}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		if err := c.Recv(&ans); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		want := (7 - i%8) + i%8
		if ans.Code != wire.CodeFound || ans.Hops != want {
			t.Fatalf("pipelined %d: %+v, want %d hops", i, ans, want)
		}
	}

	// Out-of-mesh coordinates answer codes, not errors.
	if err := c.Route([]int{200, 200}, []int{0, 0}, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Code != wire.CodeBadSrc {
		t.Fatalf("out-of-mesh: %+v", ans)
	}

	// A malformed frame (wrong dimensionality) draws an error and closes.
	if err := c.Route([]int{1, 2, 3}, []int{0, 0, 0}, &ans); err == nil {
		t.Fatal("3D request on a 2D mesh succeeded")
	}
}
