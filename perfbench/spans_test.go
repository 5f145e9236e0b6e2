package main

import "testing"

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := []struct{ id, self int64 }{{1, 100 - 40 - 10}, {2, 20 - 6}, {3, 30}, {4, 30}, {5, 6}}
	for _, w := range want {
		if self[w.id] != w.self {
			t.Errorf("self[%d] = %d, want %d", w.id, self[w.id], w.self)
		}
	}
}

func TestSelfTimeDisjointAndNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "p", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "x", Start: 1, End: 2},
		{ID: 3, Parent: 1, Name: "x", Start: 4, End: 8},
		{ID: 4, Parent: 1, Name: "x", Start: 5, End: 6}, // inside the previous one
	}
	selfS, count := layerTotals(spans)
	if got := selfS["p"] * 1e9; got != 5 {
		t.Errorf("self(p) = %v ns, want 5", got)
	}
	if count["x"] != 3 {
		t.Errorf("count(x) = %d, want 3", count["x"])
	}
}

func TestLaneNestsSpans(t *testing.T) {
	tr := newTracer(newClock())
	l := tr.lane(7)
	l.begin("outer")
	l.begin("inner")
	l.end()
	l.setKey(8)
	l.begin("sibling")
	l.end()
	l.end()
	l.flush()
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	outer, inner, sib := tr.spans[0], tr.spans[1], tr.spans[2]
	if outer.Parent != 0 || inner.Parent != outer.ID || sib.Parent != outer.ID {
		t.Errorf("parents: outer %d inner %d sibling %d (outer id %d)", outer.Parent, inner.Parent, sib.Parent, outer.ID)
	}
	if inner.Key != 7 || sib.Key != 8 {
		t.Errorf("keys: inner %d sibling %d, want 7 and 8", inner.Key, sib.Key)
	}
	if inner.Start < outer.Start || inner.End > outer.End || outer.End < sib.End {
		t.Errorf("children not inside parent: %+v", tr.spans)
	}
	var nilLane *lane // tracing off: every call is a no-op
	nilLane.begin("x")
	nilLane.end()
	nilLane.flush()
}
