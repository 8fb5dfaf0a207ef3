package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bolt-lsm/bolt"
)

// spanKind names what a span covers: a DB call a client made, a
// background job the engine reported through its event listener, or a
// batch of calls into one layer during replay.
type spanKind uint8

const (
	spanPut spanKind = iota + 1
	spanGet
	spanScan
	spanWaitIdle
	spanFlush
	spanCompaction
	spanStall
	spanValueGC
	spanReplay // a replay group; its children are replay batches
	spanLayer  // one batch of calls into a layer; name says which
)

var spanNames = map[spanKind]string{
	spanPut: "db.put", spanGet: "db.get", spanScan: "db.scan", spanWaitIdle: "db.wait_idle",
	spanFlush: "bg.flush", spanCompaction: "bg.compaction", spanStall: "bg.stall",
	spanValueGC: "bg.value_gc", spanReplay: "replay",
}

// span is one timed interval, in nanoseconds since the trace origin.
// Count is the calls a layer batch covers, or the barriers a background
// job paid; bytes is what a background job wrote.
type span struct {
	id, parent   uint64
	kind         spanKind
	name         string
	count, bytes int64
	start, end   int64
}

// tracer keeps spans in memory until the run ends. Clients record into
// their own spanLog; the event listener and replays share bg under mu.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64

	mu   sync.Mutex
	logs []*spanLog
	bg   []span
	open map[uint64]bolt.Event // flush and compaction start events by Job
	seqs []uint64
}

// spanLog is one client goroutine's buffer of DB-call spans.
type spanLog struct {
	t   *tracer
	ops []opSpan
}

// opSpan is a span of one DB call. It holds no pointers, so the garbage
// collector does not scan the large buffers of them a traced run fills.
type opSpan struct {
	id         uint64
	kind       spanKind
	start, end int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), open: map[uint64]bolt.Event{}}
}

// clientLog returns a fresh span buffer for one client goroutine.
func (t *tracer) clientLog() *spanLog {
	l := &spanLog{t: t, ops: make([]opSpan, 0, 1<<16)}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// begin reserves a span ID; nil logs trace nothing.
func (l *spanLog) begin() uint64 {
	if l == nil {
		return 0
	}
	return l.t.ids.Add(1)
}

// end records a finished root span.
func (l *spanLog) end(id uint64, kind spanKind, start, end time.Time) {
	if l == nil {
		return
	}
	l.ops = append(l.ops, opSpan{id: id, kind: kind, start: l.t.ns(start), end: l.t.ns(end)})
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// onEvent pairs background start and end events into spans. It is the
// engine's EventListener in traced runs, so it sees every event rather
// than the retained ring; gaps in Seq are checked at the end.
func (t *tracer) onEvent(e bolt.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seqs = append(t.seqs, e.Seq)
	var kind spanKind
	switch e.Type {
	case bolt.EventFlushStart, bolt.EventCompactionStart:
		t.open[e.Job] = e
		return
	case bolt.EventFlushEnd:
		kind = spanFlush
	case bolt.EventCompactionEnd:
		kind = spanCompaction
	case bolt.EventStallEnd:
		kind = spanStall
	case bolt.EventVLogGC:
		kind = spanValueGC
	default:
		return
	}
	// Stall and value-GC events carry their duration on the end event;
	// flushes and compactions are paired with their start by Job.
	start := e.Time.Add(-e.Dur)
	if kind == spanFlush || kind == spanCompaction {
		if s, ok := t.open[e.Job]; ok {
			start = s.Time
			delete(t.open, e.Job)
		}
	}
	t.bg = append(t.bg, span{
		id: t.ids.Add(1), kind: kind, name: e.Reason, count: e.Barriers, bytes: e.BytesOut,
		start: t.ns(start), end: t.ns(e.Time),
	})
}

// checkSeq fails if the listener missed an event: the sequence numbers
// it saw must run 1..n without a gap.
func (t *tracer) checkSeq() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.seqs, func(i, j int) bool { return t.seqs[i] < t.seqs[j] })
	for i, s := range t.seqs {
		if s != uint64(i+1) {
			return fmt.Errorf("event listener missed events: saw seq %d at position %d", s, i+1)
		}
	}
	return nil
}

// layer times calls into one layer as a child span of parent and returns
// the mean nanoseconds per call.
func (t *tracer) layer(parent uint64, name string, calls int, fn func()) float64 {
	id := t.ids.Add(1)
	start := time.Now()
	fn()
	end := time.Now()
	t.mu.Lock()
	t.bg = append(t.bg, span{
		id: id, parent: parent, kind: spanLayer, name: name, count: int64(calls),
		start: t.ns(start), end: t.ns(end),
	})
	t.mu.Unlock()
	return float64(end.Sub(start).Nanoseconds()) / float64(max(calls, 1))
}

// group opens a replay group span; call the returned func to close it.
func (t *tracer) group(name string) (uint64, func()) {
	id := t.ids.Add(1)
	start := time.Now()
	return id, func() {
		end := time.Now()
		t.mu.Lock()
		t.bg = append(t.bg, span{id: id, kind: spanReplay, name: name,
			start: t.ns(start), end: t.ns(end)})
		t.mu.Unlock()
	}
}

// all returns every recorded span.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.bg...)
	for _, l := range t.logs {
		for _, o := range l.ops {
			out = append(out, span{id: o.id, kind: o.kind, start: o.start, end: o.end})
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it that its children cover.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, reach), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.id] = s.end - s.start - covered
	}
	return self
}

// meanDur returns the mean duration in nanoseconds of spans of kind.
func meanDur(spans []span, kind spanKind) float64 {
	var sum, n int64
	for _, s := range spans {
		if s.kind == kind {
			sum += s.end - s.start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// busySeconds sums the durations of spans of kind.
func busySeconds(spans []span, kind spanKind) float64 {
	var sum int64
	for _, s := range spans {
		if s.kind == kind {
			sum += s.end - s.start
		}
	}
	return float64(sum) / 1e9
}

// writeSpans writes spans as one JSON object per line.
func writeSpans(path string, spans []span, self map[uint64]int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		name := s.name
		if n, ok := spanNames[s.kind]; ok && s.kind != spanLayer {
			if name != "" {
				name = n + ":" + name
			} else {
				name = n
			}
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"count":%d,"bytes":%d,"start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
			s.id, s.parent, name, s.count, s.bytes, s.start, s.end, self[s.id])
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
