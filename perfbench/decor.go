package main

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sim"
)

// timedAlg decorates a sim.Algorithm from outside: it times Reset, Prepare
// and Observe, counts Observe calls that reconfigure, and records when the
// Observe of each round returned. It never alters what the algorithm
// returns, so a decorated run is bit-identical to an undecorated one.
//
// Build it with decorate, which keeps the optional interfaces the
// simulator and the serving layer probe for (sim.StateSnapshotter,
// sim.AccessReuser): hiding them would make checkpoints lose their
// algorithm state and lookahead strategies stop reusing their access
// costs, so the decorated run would do different work.
type timedAlg struct {
	sim.Algorithm
	clk  clock
	lane *lane // nil: count and time, but record no spans

	// openServe makes Prepare..Observe a sim.serve span, for callers whose
	// Stream.Serve runs inside code the benchmark cannot wrap (the serving
	// engine); the figure replay wraps Serve itself and leaves it off.
	openServe bool
	serveOpen bool

	observeNs  []int64 // duration of every Observe call
	observeEnd []int64 // clock time each Observe returned, in call order
	reconfigs  int     // Observe calls that returned a non-zero Delta
}

// decorate wraps a with timing and returns a value implementing exactly
// the optional interfaces a implements.
func decorate(a sim.Algorithm, clk clock, l *lane, openServe bool) (sim.Algorithm, *timedAlg) {
	t := &timedAlg{Algorithm: a, clk: clk, lane: l, openServe: openServe}
	snap, isSnap := a.(sim.StateSnapshotter)
	reuse, isReuse := a.(sim.AccessReuser)
	switch {
	case isSnap && isReuse:
		return &timedSnapReuse{t, snap, reuse}, t
	case isSnap:
		return &timedSnap{t, snap}, t
	case isReuse:
		return &timedReuse{t, reuse}, t
	default:
		return t, t
	}
}

type timedSnap struct {
	*timedAlg
	sim.StateSnapshotter
}

type timedReuse struct {
	*timedAlg
	sim.AccessReuser
}

type timedSnapReuse struct {
	*timedAlg
	sim.StateSnapshotter
	sim.AccessReuser
}

func (t *timedAlg) Reset(env *sim.Env) error {
	t.lane.begin("online.reset")
	defer t.lane.end()
	return t.Algorithm.Reset(env)
}

func (t *timedAlg) Prepare(round int) core.Delta {
	if t.openServe {
		if t.serveOpen { // the previous round failed between Prepare and Observe
			t.lane.end()
		}
		t.lane.setKey(int64(round))
		t.lane.begin("sim.serve")
		t.serveOpen = true
	}
	t.lane.begin("online.prepare")
	defer t.lane.end()
	return t.Algorithm.Prepare(round)
}

func (t *timedAlg) Observe(round int, d cost.Demand, access cost.AccessCost) core.Delta {
	t.lane.begin("online.observe")
	start := t.clk.now()
	delta := t.Algorithm.Observe(round, d, access)
	end := t.clk.now()
	t.lane.end()
	if t.serveOpen {
		t.lane.end()
		t.serveOpen = false
	}
	t.observeNs = append(t.observeNs, end-start)
	t.observeEnd = append(t.observeEnd, end)
	if delta != (core.Delta{}) {
		t.reconfigs++
	}
	return delta
}

// finish closes a sim.serve span a failed round left open.
func (t *timedAlg) finish() {
	if t.serveOpen {
		t.lane.end()
		t.serveOpen = false
	}
}
