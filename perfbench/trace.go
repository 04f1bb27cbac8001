package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// maxStoredSpans bounds the spans one lane keeps for the trace file;
// beyond it spans still count toward the per-layer totals but are not
// written out.
const maxStoredSpans = 200_000

// span is one timed call from the benchmark into a layer's public
// function. Spans on one lane nest strictly, so a span's children are
// exactly the spans that began and ended while it was open.
type span struct {
	name    string
	layer   string
	trace   int64 // request (probe, join, packet) the span belongs to
	id      int64 // begin order within the lane
	parent  int64 // id of the enclosing span, -1 at the root
	start   int64 // ns since the tracer's epoch
	end     int64
	childNs int64 // time covered by direct children
}

// lane records the spans of one goroutine. A nil *lane is tracing off:
// every method is then a no-op, so call sites need no branch.
type lane struct {
	id      int
	epoch   time.Time
	next    int64
	open    []span // stack of spans not yet ended
	stored  []span
	dropped int
	self    map[spanKey]*spanTotal
}

// spanKey names what a span timed: the layer and the function called.
type spanKey struct{ layer, name string }

type spanTotal struct {
	spans  int
	selfNs int64
}

// tracer owns the lanes of one run.
type tracer struct {
	epoch time.Time
	lanes []*lane
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane hands out a new lane; each goroutine that records spans takes
// its own, so recording needs no lock. Call it before starting the
// goroutine.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	l := &lane{id: len(t.lanes), epoch: t.epoch, self: map[spanKey]*spanTotal{}}
	t.lanes = append(t.lanes, l)
	return l
}

// begin opens a span and returns its handle for end.
func (l *lane) begin(layer, name string, trace int64) int {
	if l == nil {
		return -1
	}
	parent := int64(-1)
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1].id
	}
	l.open = append(l.open, span{name: name, layer: layer, trace: trace, id: l.next, parent: parent,
		start: int64(time.Since(l.epoch))})
	l.next++
	return len(l.open) - 1
}

// end closes the innermost open span, which must be h.
func (l *lane) end(h int) {
	if l == nil {
		return
	}
	if h != len(l.open)-1 {
		panic(fmt.Sprintf("perfbench: span %d ended out of order (%d open)", h, len(l.open)))
	}
	s := l.open[h]
	l.open = l.open[:h]
	s.end = int64(time.Since(l.epoch))
	dur := s.end - s.start
	k := spanKey{s.layer, s.name}
	tot := l.self[k]
	if tot == nil {
		tot = &spanTotal{}
		l.self[k] = tot
	}
	tot.spans++
	tot.selfNs += dur - s.childNs
	if h > 0 {
		l.open[h-1].childNs += dur
	}
	if len(l.stored) < maxStoredSpans {
		l.stored = append(l.stored, s)
	} else {
		l.dropped++
	}
}

// selfTimes sums the self time of each kind of span over all lanes: a
// span's duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[spanKey]spanTotal {
	out := map[spanKey]spanTotal{}
	for _, l := range t.lanes {
		for k, v := range l.self {
			o := out[k]
			o.spans += v.spans
			o.selfNs += v.selfNs
			out[k] = o
		}
	}
	return out
}

// write dumps the stored spans as JSON lines, one span per line, and
// returns how many it wrote and how many were dropped past the cap.
// Span ids are unique within a lane; a parent past the cap is absent
// from the file.
func (t *tracer) write(path string) (written, dropped int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	for _, l := range t.lanes {
		for _, s := range l.stored {
			fmt.Fprintf(w, `{"lane":%d,"id":%d,"parent":%d,"trace":%d,"layer":%q,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				l.id, s.id, s.parent, s.trace, s.layer, s.name, s.start, s.end)
		}
		written += len(l.stored)
		dropped += l.dropped
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	return written, dropped, f.Close()
}
