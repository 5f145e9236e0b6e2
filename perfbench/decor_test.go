package main

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph/gen"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fakeReuser never has a cost ready, so Stream.Serve always evaluates.
type fakeReuser struct{}

func (fakeReuser) ReuseAccess(int, core.Placement, cost.Demand) (cost.AccessCost, bool) {
	return cost.AccessCost{}, false
}

func TestDecorateForwardsOptionalInterfaces(t *testing.T) {
	onth := online.NewONTH()
	cases := []struct {
		name        string
		alg         sim.Algorithm
		snap, reuse bool
	}{
		{"plain", struct{ sim.Algorithm }{onth}, false, false},
		{"snapshotter", struct {
			sim.Algorithm
			sim.StateSnapshotter
		}{onth, onth}, true, false},
		{"reuser", struct {
			sim.Algorithm
			sim.AccessReuser
		}{onth, fakeReuser{}}, false, true},
		{"both", struct {
			sim.Algorithm
			sim.StateSnapshotter
			sim.AccessReuser
		}{onth, onth, fakeReuser{}}, true, true},
		{"ONTH", online.NewONTH(), true, false},
		{"ONBR", online.NewONBR(), true, false},
	}
	for _, c := range cases {
		wrapped, timed := decorate(c.alg, newClock(), nil, false)
		if timed == nil {
			t.Fatalf("%s: no decorator returned", c.name)
		}
		if _, ok := wrapped.(sim.StateSnapshotter); ok != c.snap {
			t.Errorf("%s: wrapped implements StateSnapshotter = %v, want %v", c.name, ok, c.snap)
		}
		if _, ok := wrapped.(sim.AccessReuser); ok != c.reuse {
			t.Errorf("%s: wrapped implements AccessReuser = %v, want %v", c.name, ok, c.reuse)
		}
		if wrapped.Name() != c.alg.Name() {
			t.Errorf("%s: name %q, want %q", c.name, wrapped.Name(), c.alg.Name())
		}
	}
}

func smallRun(t *testing.T) (*sim.Env, *workload.Sequence) {
	t.Helper()
	g, err := gen.ErdosRenyi(60, 0.08, gen.DefaultOptions(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	env, err := sim.NewEnv(g, cost.Linear{}, cost.AssignMinCost, cost.DefaultParams(), core.Params{QueueCap: 3, Expiry: 20})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := workload.CommuterDynamic(env.Metric, workload.CommuterConfig{T: workload.TForSize(60), Lambda: 5}, 120)
	if err != nil {
		t.Fatal(err)
	}
	return env, seq
}

// A decorated run — online or offline, spans on or off — must produce the
// undecorated ledger bit for bit, and the snapshot it forwards must be the
// inner algorithm's.
func TestDecoratedRunIsBitIdentical(t *testing.T) {
	env, seq := smallRun(t)
	algs := []func() sim.Algorithm{
		func() sim.Algorithm { return online.NewONTH() },
		func() sim.Algorithm { return online.NewONBRDynamic() },
		func() sim.Algorithm { return offline.NewOFFTH(seq) },
	}
	for _, mk := range algs {
		want, err := sim.Run(env, mk(), seq)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(newClock())
		l := tr.lane(0)
		inner := mk()
		wrapped, timed := decorate(inner, tr.clk, l, true)
		got, err := sim.Run(env, wrapped, seq)
		if err != nil {
			t.Fatal(err)
		}
		timed.finish()
		l.flush()
		if got.Totals != want.Totals || len(got.Rounds) != len(want.Rounds) {
			t.Errorf("%s: decorated totals %+v, undecorated %+v", inner.Name(), got.Totals, want.Totals)
		}
		if len(timed.observeNs) != seq.Len() || len(timed.observeEnd) != seq.Len() {
			t.Errorf("%s: %d Observe timings for %d rounds", inner.Name(), len(timed.observeNs), seq.Len())
		}
		_, count := layerTotals(tr.spans)
		if count["sim.serve"] != seq.Len() || count["online.observe"] != seq.Len() || count["online.reset"] != 1 {
			t.Errorf("%s: span counts %v", inner.Name(), count)
		}
		if s, ok := wrapped.(sim.StateSnapshotter); ok {
			a, errA := s.SnapshotState()
			b, errB := inner.(sim.StateSnapshotter).SnapshotState()
			if errA != nil || errB != nil || string(a) != string(b) {
				t.Errorf("%s: forwarded snapshot differs from the inner one", inner.Name())
			}
		}
	}
}
