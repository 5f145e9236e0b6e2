package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock reads monotonic nanoseconds since a fixed epoch, so spans, due
// times and Observe completions from different goroutines share one axis.
type clock struct{ epoch time.Time }

func newClock() clock {
	return clock{epoch: time.Now()} //repcheck:allow-wallclock benchmark timing axis; never reaches a program result
}

func (c clock) now() int64 {
	return int64(time.Since(c.epoch)) //repcheck:allow-wallclock benchmark timing axis; never reaches a program result
}

// span is one timed call into a layer. Key is the id the span's work
// shares with its siblings: the flat cell index for figure cells, the
// request index for ingests, the round for algorithm hooks.
type span struct {
	ID, Parent int64
	Name       string
	Key        int64
	Start, End int64 // clock nanoseconds
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory; they are written out once, at the end
// of the run. A nil *tracer records nothing.
type tracer struct {
	clk   clock
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(clk clock) *tracer { return &tracer{clk: clk} }

// lane records the spans of one goroutine: begin/end nest, so the open
// span on top of the stack is the parent of the next one. A lane belongs
// to a single goroutine at a time; flush hands its spans to the tracer.
type lane struct {
	tr    *tracer
	key   int64
	buf   []span
	stack []int // indexes into buf of the open spans
}

// lane returns a recorder for one goroutine's spans, or nil when tracing
// is off (every lane method is a no-op on nil).
func (t *tracer) lane(key int64) *lane {
	if t == nil {
		return nil
	}
	return &lane{tr: t, key: key}
}

func (l *lane) begin(name string) {
	if l == nil {
		return
	}
	parent := int64(0)
	if k := len(l.stack); k > 0 {
		parent = l.buf[l.stack[k-1]].ID
	}
	l.stack = append(l.stack, len(l.buf))
	l.buf = append(l.buf, span{ID: l.tr.ids.Add(1), Parent: parent, Name: name, Key: l.key, Start: l.tr.clk.now()})
}

func (l *lane) end() {
	if l == nil {
		return
	}
	k := len(l.stack) - 1
	l.buf[l.stack[k]].End = l.tr.clk.now()
	l.stack = l.stack[:k]
}

// setKey changes the shared id stamped on spans begun from now on.
func (l *lane) setKey(key int64) {
	if l != nil {
		l.key = key
	}
}

// flush moves the lane's closed spans to the tracer.
func (l *lane) flush() {
	if l == nil || len(l.buf) == 0 {
		return
	}
	if len(l.stack) != 0 {
		panic("perfbench: lane flushed with open spans")
	}
	l.tr.mu.Lock()
	l.tr.spans = append(l.tr.spans, l.buf...)
	l.tr.mu.Unlock()
	l.buf = nil
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children (overlapping children count once,
// and child time outside the parent's interval is ignored).
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals clipped to p.
func covered(p span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// layerTotals sums self time (seconds) and span counts per span name.
func layerTotals(spans []span) (selfS map[string]float64, count map[string]int) {
	self := selfTimes(spans)
	selfS = make(map[string]float64)
	count = make(map[string]int)
	for _, s := range spans {
		selfS[s.Name] += float64(self[s.ID]) / 1e9
		count[s.Name]++
	}
	return selfS, count
}

// writeSpans writes one span per line as a JSON array
// [id, parent, name, key, start_ns, end_ns], in recording order.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, "[%d,%d,%q,%d,%d,%d]\n", s.ID, s.Parent, s.Name, s.Key, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
