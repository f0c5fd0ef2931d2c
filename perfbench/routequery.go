package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lambmesh/internal/classtable"
	"lambmesh/internal/mesh"
	"lambmesh/internal/par"
	"lambmesh/internal/routing"
	"lambmesh/internal/server"
	"lambmesh/internal/wire"
)

const (
	pipelineDepth = 16 // requests in flight per connection
	loadConns     = 2  // nproc of the reference machine
	sampleEvery   = 2048
	rqSegments    = 16 // route-query segments, each on its own fault set and connections
)

// Seed streams (par.TrialSeed's stream argument) of the generated inputs.
const (
	streamFaults = iota
	streamPairs
	streamScript
	streamCampaign
	streamCells
	streamProbe
	streamRouteFaults
)

func rngFor(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewSource(par.TrialSeed(seed, stream, i)))
}

// lambd is one running route service: a server, the wire listeners in front
// of it and one client per load connection. Untraced, all clients share
// one listener; traced, each client gets its own listener and backend
// wrapper so server spans know which client batch they belong to.
type lambd struct {
	srv       *server.Server
	ls        []net.Listener
	clients   []*wire.Client
	traced    []*tracedBackend // traced only, one per listener
	survivors []mesh.Coord
	served    sync.WaitGroup
}

func startLambd(m *mesh.Mesh, faults *mesh.FaultSet, nconns int, tr *tracer) (*lambd, error) {
	srv, err := server.New(server.Config{
		Mesh:          m,
		Orders:        routing.UniformAscending(m.Dims(), 2),
		InitialFaults: faults,
		Workers:       loadConns,
	})
	if err != nil {
		return nil, err
	}
	d := &lambd{srv: srv}
	nl := 1
	if tr != nil {
		nl = nconns
	}
	for i := 0; i < nl; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		d.ls = append(d.ls, l)
		var b wire.Backend = srv.WireBackend()
		if tr != nil {
			tb := &tracedBackend{inner: b, tr: tr, ct: &connTrace{}}
			d.traced = append(d.traced, tb)
			b = tb
		}
		d.served.Add(1)
		go func() {
			defer d.served.Done()
			wire.Serve(l, b)
		}()
	}
	if err := d.dial(nconns); err != nil {
		d.close()
		return nil, err
	}
	d.survivors = survivorsOf(srv.Epoch())
	if len(d.survivors) < 2 {
		d.close()
		return nil, errors.New("fewer than two survivors")
	}
	return d, nil
}

// dial replaces the clients with n fresh connections, client i to
// listener i mod len(ls).
func (d *lambd) dial(n int) error {
	for _, c := range d.clients {
		c.Close()
	}
	d.clients = d.clients[:0]
	for i := 0; i < n; i++ {
		// No timeout: wire.Dial with a positive timeout sets one absolute
		// deadline on the connection, which fails every request after it.
		c, err := wire.Dial(d.ls[i%len(d.ls)].Addr().String(), 0)
		if err != nil {
			return err
		}
		d.clients = append(d.clients, c)
	}
	return nil
}

func (d *lambd) close() {
	for _, c := range d.clients {
		c.Close()
	}
	for _, l := range d.ls {
		l.Close()
	}
	d.served.Wait()
	for _, tb := range d.traced {
		tb.flush()
	}
	d.srv.Close()
}

// connTrace returns the span context of client i, nil when untraced.
func (d *lambd) connTrace(i int) *connTrace {
	if d.traced == nil {
		return nil
	}
	return d.traced[i].ct
}

// classReps returns one survivor per SES class and one per DES class of
// class table t.
func classReps(t *classtable.Table, survivors []mesh.Coord) (ses, des []mesh.Coord) {
	ns, nd := t.Classes()
	ses, des = make([]mesh.Coord, ns), make([]mesh.Coord, nd)
	for _, c := range survivors {
		i, j := t.ClassOf(c)
		if i >= 0 && ses[i] == nil {
			ses[i] = c
		}
		if j >= 0 && des[j] == nil {
			des[j] = c
		}
	}
	return ses, des
}

// warm queries one pair from every (SES, DES) class pair over client c, the
// pass that fills every slot of the class table. It returns the number of
// queries sent.
func (d *lambd) warm(c *wire.Client) (int64, error) {
	ses, des := classReps(d.srv.Epoch().Table, d.survivors)
	var pending int
	var n int64
	var ans wire.Answer
	drain := func() error {
		if err := c.Flush(); err != nil {
			return err
		}
		for ; pending > 0; pending-- {
			if err := c.Recv(&ans); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range ses {
		for _, t := range des {
			if s == nil || t == nil || s.Equal(t) {
				continue
			}
			if err := c.Send(s, t); err != nil {
				return n, err
			}
			n++
			if pending++; pending == pipelineDepth {
				if err := drain(); err != nil {
					return n, err
				}
			}
		}
	}
	return n, drain()
}

// pairGen draws uniform survivor pairs.
type pairGen struct {
	rng  *rand.Rand
	surv []mesh.Coord
}

func (g *pairGen) next() (mesh.Coord, mesh.Coord) {
	n := len(g.surv)
	i := g.rng.Intn(n)
	j := g.rng.Intn(n - 1)
	if j >= i {
		j++
	}
	return g.surv[i], g.surv[j]
}

// answerSample is one wire answer kept for the post-run check.
type answerSample struct {
	src, dst mesh.Coord
	ans      wire.Answer
}

// connLoad is what one load connection measured.
type connLoad struct {
	sent, recvd int64
	lat         hist
	samples     []answerSample
	stale       int64 // answers older than the reported generation (fault-churn)
	err         error
}

// traceEvery thins the closed-loop batches a traced run records, with
// their server spans, to one in traceEvery, which keeps a traced
// route-query run to some 10^5 spans.
const traceEvery = 8

// loadConn drives client c in batches of pipelineDepth until stop reports
// true. With every == 0 it runs closed loop: the next batch goes out as soon
// as the last answer is in, and each query's latency runs from the batch's
// flush to its response. With every > 0 it runs open loop: batch k is due
// every*k after the start, and latency runs from the due time, so a stall
// is charged to every batch it delays. ct, when non-nil, records a
// wire.batch span for every open-loop batch and every traceEvery-th
// closed-loop one; want, when non-nil, is the generation the last fault
// report asked for.
func loadConn(c *wire.Client, g *pairGen, every time.Duration, stop func() bool, tr *tracer, ct *connTrace, want *atomic.Uint64, out *connLoad) {
	var ans wire.Answer
	var buf spanBuf
	defer tr.collect(&buf)
	src := make([]mesh.Coord, 0, pipelineDepth)
	dst := make([]mesh.Coord, 0, pipelineDepth)
	due := time.Now()
	for batch := 0; !stop(); batch++ {
		if every > 0 {
			due = due.Add(every)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
		}
		var id uint32
		var start int64
		if ct != nil && (every > 0 || batch%traceEvery == 0) {
			id = tr.newID()
			start = tr.now()
		}
		if ct != nil {
			ct.batch.Store(id)
		}
		src, dst = src[:0], dst[:0]
		for k := 0; k < pipelineDepth; k++ {
			s, t := g.next()
			if err := c.Send(s, t); err != nil {
				out.err = err
				return
			}
			src, dst = append(src, s), append(dst, t)
		}
		out.sent += pipelineDepth
		if err := c.Flush(); err != nil {
			out.err = err
			return
		}
		t0 := time.Now()
		if every > 0 {
			t0 = due
		}
		for k := 0; k < pipelineDepth; k++ {
			if err := c.Recv(&ans); err != nil {
				out.err = err
				return
			}
			out.lat.add(time.Since(t0))
			out.recvd++
			if out.recvd%sampleEvery == 0 {
				a := ans
				a.Via = append([]int(nil), ans.Via...)
				out.samples = append(out.samples, answerSample{src[k], dst[k], a})
			}
			if want != nil && ans.Gen < want.Load() {
				out.stale++
			}
		}
		if id != 0 {
			buf.add(span{name: "wire.batch", id: id, start: start, end: tr.now()})
		}
	}
}

// checkAnswer compares one wire answer with Server.Route on the same epoch.
func checkAnswer(srv *server.Server, s answerSample) error {
	ref := srv.Route(s.src, s.dst)
	a := s.ans
	if a.Gen != ref.Generation {
		return fmt.Errorf("%v->%v: wire generation %d, Route %d", s.src, s.dst, a.Gen, ref.Generation)
	}
	if (a.Code == wire.CodeFound) != ref.Found {
		return fmt.Errorf("%v->%v: wire code %d, Route found=%v", s.src, s.dst, a.Code, ref.Found)
	}
	if !ref.Found {
		return nil
	}
	r := ref.Route
	if a.Hops != r.Hops() || a.Turns != r.Turns() || a.NVias != len(r.Vias) {
		return fmt.Errorf("%v->%v: wire hops/turns/vias %d/%d/%d, Route %d/%d/%d",
			s.src, s.dst, a.Hops, a.Turns, a.NVias, r.Hops(), r.Turns(), len(r.Vias))
	}
	var via []int
	for _, v := range r.Vias {
		via = append(via, v...)
	}
	if fmt.Sprint(via) != fmt.Sprint(a.Via) {
		return fmt.Errorf("%v->%v: wire vias %v, Route %v", s.src, s.dst, a.Via, via)
	}
	return nil
}

// routeQueryInput is fault set k of the route-query workload: Fig. 17
// scale, 31 node faults on 32x32.
func routeQueryInput(seed int64, k int) (*mesh.Mesh, *mesh.FaultSet) {
	m := mesh.MustNew(32, 32)
	return m, mesh.RandomNodeFaults(m, 31, rngFor(seed, streamRouteFaults, k))
}

// runRouteQuery runs rqSegments segments, each against its own lambd on
// its own seeded fault set: set up (server, listener, connections, warm
// pass), then load for an equal share of the timed phase on fresh
// connections. Query cost follows the fault set's class structure (runs
// on single draws differed by 2x in set-up and 30% in throughput), and
// where the Go scheduler places a connection's client and server
// goroutines fixes its throughput for the connection's lifetime, so a run
// on one fault set and one connection pair would be a single draw of each.
// The latency quantiles are medians over the segments, so one segment
// hit by a slow spell of the host does not set the run's tail.
func runRouteQuery(o runOpts) (*outcome, error) {
	out := &outcome{}
	var heaps []float64
	for seg := 0; seg < rqSegments; seg++ {
		m, faults := routeQueryInput(o.seed, seg)
		start := time.Now()
		d, err := startLambd(m, faults, loadConns, o.tr)
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

		loads := make([]connLoad, loadConns)
		runtime.GC()
		gc0 := readGC()
		start = time.Now()
		deadline := start.Add(o.dur / rqSegments)
		stop := func() bool { return time.Now().After(deadline) }
		var wg sync.WaitGroup
		for i := range d.clients {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				g := &pairGen{rng: rngFor(o.seed, streamPairs, seg*loadConns+i), surv: d.survivors}
				loadConn(d.clients[i], g, 0, stop, o.tr, d.connTrace(i), nil, &loads[i])
			}(i)
		}
		wg.Wait()
		out.wall += time.Since(start)
		gc1 := readGC()
		out.gc.cycles += gc1.cycles - gc0.cycles
		out.gc.pause += gc1.pause - gc0.pause

		seg := &hist{}
		var samples []answerSample
		for i := range loads {
			l := &loads[i]
			out.attempted += l.sent
			out.failed += l.sent - l.recvd
			out.work += float64(l.recvd)
			seg.merge(&l.lat)
			samples = append(samples, l.samples...)
			if l.err != nil {
				fmt.Fprintf(logw, "route-query: connection %d: %v\n", i, l.err)
			}
		}
		out.segLat = append(out.segLat, seg)
		loads = nil
		heaps = append(heaps, liveHeapMiB())
		for _, s := range samples {
			if err := checkAnswer(d.srv, s); err != nil {
				out.failed++
				fmt.Fprintln(logw, "route-query:", err)
			}
		}
		d.close()
	}
	out.heapMiB = median(heaps)
	return out, nil
}
