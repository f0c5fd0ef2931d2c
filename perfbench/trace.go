package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lambmesh/internal/wire"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the call. Times are nanoseconds since the tracer began;
// parent is the id of the span that caused it (0 for a root).
type span struct {
	name       string
	id, parent uint32
	start, end int64
}

// maxSpans bounds the spans one tracer keeps; later spans are counted as
// dropped so a long traced run cannot exhaust memory.
const maxSpans = 1 << 21

// tracer collects spans in memory. A nil *tracer is the untraced run: its
// methods do nothing.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint32
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.t0)) }

func (t *tracer) newID() uint32 { return t.ids.Add(1) }

// collect moves a goroutine's span buffer into the tracer.
func (t *tracer) collect(b *spanBuf) {
	if t == nil || len(b.spans) == 0 {
		return
	}
	t.mu.Lock()
	room := maxSpans - len(t.spans)
	if room < len(b.spans) {
		t.dropped += len(b.spans) - max(room, 0)
		b.spans = b.spans[:max(room, 0)]
	}
	t.spans = append(t.spans, b.spans...)
	t.mu.Unlock()
	b.spans = nil
}

// spanBuf is one goroutine's span buffer, so recording takes no lock.
type spanBuf struct{ spans []span }

func (b *spanBuf) add(s span) {
	if len(b.spans) < maxSpans {
		b.spans = append(b.spans, s)
	}
}

// selfTimes returns, per span name, the mean self time in microseconds: a
// span's duration minus the part of its interval its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[uint32][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	sum := map[string]int64{}
	count := map[string]int64{}
	for _, s := range spans {
		self := s.end - s.start - covered(s, children[s.id])
		sum[s.name] += self
		count[s.name]++
	}
	out := map[string]float64{}
	for name, n := range count {
		out[name] = float64(sum[name]) / float64(n) / 1e3
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total int64
	lo, hi := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.start, p.start), min(k.end, p.end)
		if e <= s {
			continue
		}
		if s > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	if hi > lo {
		total += hi - lo
	}
	return total
}

// writeSpans writes the spans of one workload as JSON lines.
func writeSpans(path, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"workload":%q,"name":%q,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			workload, s.name, s.id, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// connTrace carries the id of the batch a client connection has in flight,
// so the server-side span of each request can name its parent; 0 when the
// batch is not traced.
type connTrace struct{ batch atomic.Uint32 }

// tracedBackend records a server.query span around each call into the
// server's wire backend. One instance serves one connection.
type tracedBackend struct {
	inner wire.Backend
	tr    *tracer
	ct    *connTrace
	buf   spanBuf
	mu    sync.Mutex // orders buf against flush after the connection ends
}

func (b *tracedBackend) Dims() int { return b.inner.Dims() }

func (b *tracedBackend) Query(src, dst []int, ans *wire.Answer) {
	parent := b.ct.batch.Load()
	if parent == 0 {
		b.inner.Query(src, dst, ans)
		return
	}
	start := b.tr.now()
	b.inner.Query(src, dst, ans)
	end := b.tr.now()
	b.mu.Lock()
	b.buf.add(span{name: "server.query", id: b.tr.newID(), parent: parent, start: start, end: end})
	b.mu.Unlock()
}

func (b *tracedBackend) flush() {
	b.mu.Lock()
	b.tr.collect(&b.buf)
	b.mu.Unlock()
}
