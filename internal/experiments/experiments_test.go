package experiments

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/experiments/runner"
	"repro/internal/trace"
)

func quick() Options { return Options{Quick: true, Seed: 7} }

func checkTable(t *testing.T, tab *trace.Table, err error, wantSeries int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tab.Series) != wantSeries {
		t.Fatalf("%s: %d series, want %d", tab.Title, len(tab.Series), wantSeries)
	}
	if len(tab.X) == 0 {
		t.Fatalf("%s: empty x axis", tab.Title)
	}
	for _, s := range tab.Series {
		for i, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("%s/%s[%d] = %v", tab.Title, s.Label, i, v)
			}
		}
	}
}

func TestFigure1QuadraticUsesMoreServers(t *testing.T) {
	tab, err := Figure1(quick())
	checkTable(t, tab, err, 2)
	// Average active servers: the quadratic series must not trail linear.
	mean := func(vs []float64) float64 {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return s / float64(len(vs))
	}
	lin, quad := mean(tab.Series[0].Values), mean(tab.Series[1].Values)
	if quad < lin-0.3 {
		t.Fatalf("quadratic load used fewer servers (%v) than linear (%v)", quad, lin)
	}
}

func TestFigure2Converges(t *testing.T) {
	tab, err := Figure2(quick())
	checkTable(t, tab, err, 2)
	// Static load: the server count in the last quarter should be stable
	// (vary by at most 2 servers) for the linear series.
	vals := tab.Series[0].Values
	tail := vals[3*len(vals)/4:]
	min, max := tail[0], tail[0]
	for _, v := range tail {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min > 2 {
		t.Fatalf("linear series still swinging by %v servers near the horizon", max-min)
	}
}

func TestFigure3ONTHWins(t *testing.T) {
	tab, err := Figure3(quick())
	checkTable(t, tab, err, 3)
	// ONTH (series 2) must beat ONBR-fixed (series 0) on average — the
	// paper's headline comparison.
	sumONBR, sumONTH := 0.0, 0.0
	for i := range tab.X {
		sumONBR += tab.Series[0].Values[i]
		sumONTH += tab.Series[2].Values[i]
	}
	if sumONTH >= sumONBR {
		t.Fatalf("ONTH total %v not below ONBR-fixed %v", sumONTH, sumONBR)
	}
}

func TestFigure3CostGrowsWithSize(t *testing.T) {
	tab, err := Figure3(quick())
	checkTable(t, tab, err, 3)
	first, last := tab.Series[2].Values[0], tab.Series[2].Values[len(tab.X)-1]
	if last <= first {
		t.Fatalf("ONTH cost did not grow with network size: %v -> %v", first, last)
	}
}

func TestFigure4Runs(t *testing.T) {
	tab, err := Figure4(quick())
	checkTable(t, tab, err, 3)
}

func TestFigure5Runs(t *testing.T) {
	tab, err := Figure5(quick())
	checkTable(t, tab, err, 3)
}

func TestFigure6NoMigrationWhenBetaExceedsC(t *testing.T) {
	tab, err := Figure6(quick())
	checkTable(t, tab, err, 4)
	for i, v := range tab.Series[2].Values { // migration series
		if v != 0 {
			t.Fatalf("x=%v: migration cost %v under β>c", tab.X[i], v)
		}
	}
	// Creation must be non-trivial (servers are built as demand fans out).
	nonzero := false
	for _, v := range tab.Series[3].Values {
		if v > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("no creation cost at all")
	}
}

func TestFigure7Runs(t *testing.T) {
	tab, err := Figure7(quick())
	checkTable(t, tab, err, 3)
}

func TestFigure8ONTHFactorTwo(t *testing.T) {
	tab, err := Figure8(quick())
	checkTable(t, tab, err, 3)
	// "ONTH is better by a factor of approximately two" at the paper's
	// scale; the scaled-down quick instance must still show a clear
	// advantage (the full-scale factor is recorded in EXPERIMENTS.md).
	sumONBR, sumONTH := 0.0, 0.0
	for i := range tab.X {
		sumONBR += tab.Series[0].Values[i]
		sumONTH += tab.Series[2].Values[i]
	}
	if sumONBR < 1.05*sumONTH {
		t.Fatalf("ONBR/ONTH = %v, want ≥ 1.05", sumONBR/sumONTH)
	}
}

func TestFigure9Runs(t *testing.T) {
	tab, err := Figure9(quick())
	checkTable(t, tab, err, 3)
}

func TestFigure10Runs(t *testing.T) {
	tab, err := Figure10(quick())
	checkTable(t, tab, err, 3)
}

func TestFigure11RatiosAtLeastOne(t *testing.T) {
	tab, err := Figure11(quick())
	checkTable(t, tab, err, 3)
	for _, s := range tab.Series {
		for i, v := range s.Values {
			if v < 1-1e-9 {
				t.Fatalf("%s at λ=%v: ONTH/OPT = %v < 1 (OPT not optimal?)", s.Label, tab.X[i], v)
			}
			if v > 30 {
				t.Fatalf("%s at λ=%v: ratio %v implausibly high", s.Label, tab.X[i], v)
			}
		}
	}
}

func TestFigure12CurveHasMinimum(t *testing.T) {
	tab, err := Figure12(quick())
	checkTable(t, tab, err, 1)
	vals := tab.Series[0].Values
	if len(vals) < 3 {
		t.Fatalf("curve too short: %d", len(vals))
	}
}

func TestFigure13OPTBelowOFFSTAT(t *testing.T) {
	tab, err := Figure13(quick())
	checkTable(t, tab, err, 2)
	for i := range tab.X {
		if tab.Series[1].Values[i] > tab.Series[0].Values[i]+1e-6 {
			t.Fatalf("λ=%v: OPT %v above OFFSTAT %v", tab.X[i], tab.Series[1].Values[i], tab.Series[0].Values[i])
		}
	}
}

func TestFigure14Runs(t *testing.T) {
	tab, err := Figure14(quick())
	checkTable(t, tab, err, 2)
}

func TestFigure15RatiosAtLeastOne(t *testing.T) {
	tab, err := Figure15(quick())
	checkTable(t, tab, err, 2)
	for _, s := range tab.Series {
		for i, v := range s.Values {
			if v < 1-1e-9 {
				t.Fatalf("%s at λ=%v: OFFSTAT/OPT = %v < 1", s.Label, tab.X[i], v)
			}
		}
	}
}

func TestFigure16Runs(t *testing.T) {
	tab, err := Figure16(quick())
	checkTable(t, tab, err, 2)
}

func TestFigure17Runs(t *testing.T) {
	tab, err := Figure17(quick())
	checkTable(t, tab, err, 2)
}

func TestFigure18Runs(t *testing.T) {
	tab, err := Figure18(quick())
	checkTable(t, tab, err, 2)
}

func TestFigure19Runs(t *testing.T) {
	tab, err := Figure19(quick())
	checkTable(t, tab, err, 2)
}

func TestTableRocketfuelOrdering(t *testing.T) {
	res, err := TableRocketfuel(quick())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's qualitative result: OFFSTAT < ONTH < ONBR.
	if !(res.Offstat < res.Onth && res.Onth < res.Onbr) {
		t.Fatalf("ordering violated: OFFSTAT=%v ONTH=%v ONBR=%v", res.Offstat, res.Onth, res.Onbr)
	}
	if res.OnthRatio() > 3.5 {
		t.Fatalf("ONTH/OFFSTAT = %v, paper reports < 2", res.OnthRatio())
	}
	tab := res.Table()
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAblationsRun(t *testing.T) {
	ablations := map[string]func(Options) (*trace.Table, error){
		"queue":  AblationQueue,
		"expiry": AblationExpiry,
		"y":      AblationY,
		"theta":  AblationTheta,
		"load":   AblationLoad,
		"assign": AblationAssign,
	}
	names := make([]string, 0, len(ablations))
	for name := range ablations {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn := ablations[name]
		tab, err := fn(quick())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tab.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range tab.Series {
			for i, v := range s.Values {
				if math.IsNaN(v) || v <= 0 {
					t.Fatalf("%s: %s[%d] = %v", name, s.Label, i, v)
				}
			}
		}
	}
}

func TestCompareOnlineVariants(t *testing.T) {
	tab, err := CompareOnlineVariants(quick())
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tab.Series) != 7 {
		t.Fatalf("%d variants, want 7", len(tab.Series))
	}
	for _, s := range tab.Series {
		total, ratio := s.Values[0], s.Values[1]
		if total <= 0 || math.IsNaN(total) {
			t.Fatalf("%s: total %v", s.Label, total)
		}
		if ratio < 1-1e-9 {
			t.Fatalf("%s: beat OPT with ratio %v", s.Label, ratio)
		}
		if ratio > 50 {
			t.Fatalf("%s: ratio %v implausible", s.Label, ratio)
		}
	}
}

func TestOptionsDeterministic(t *testing.T) {
	a, err := Figure13(quick())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure13(quick())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.X {
		for si := range a.Series {
			if a.Series[si].Values[i] != b.Series[si].Values[i] {
				t.Fatalf("same options produced different results at x=%v", a.X[i])
			}
		}
	}
}

func TestSpecRegistry(t *testing.T) {
	names := SpecNames()
	if len(names) != 31 {
		t.Fatalf("%d specs registered, want 31", len(names))
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Fatalf("spec %q registered twice", name)
		}
		seen[name] = true
		spec, err := NewSpec(name, quick())
		if err != nil {
			t.Fatal(err)
		}
		if spec.Name != name {
			t.Fatalf("spec %q built under name %q", name, spec.Name)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := NewSpec("no-such-figure", quick()); err == nil {
		t.Fatal("unknown spec accepted")
	}
}

// TestSpecMatchesFigureFunction pins the grid decomposition to the exported
// figure functions: running the registered spec must reproduce the exact
// same table.
func TestSpecMatchesFigureFunction(t *testing.T) {
	spec, err := NewSpec("13", quick())
	if err != nil {
		t.Fatal(err)
	}
	got, err := runner.Run(spec, runner.Local{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Figure13(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spec table differs from Figure13:\n got %+v\nwant %+v", got, want)
	}
}

// TestSpecShardMergeParity runs one figure as a 2-way shard split plus
// merge and requires the reduced table to be bit-identical to the
// single-process run — the multi-machine execution contract.
func TestSpecShardMergeParity(t *testing.T) {
	spec, err := NewSpec("12", quick())
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*trace.Partial
	for i := 1; i <= 2; i++ {
		idxs, err := runner.ShardCells(spec.Cells(), i, 2)
		if err != nil {
			t.Fatal(err)
		}
		g, err := runner.CellSet{Idxs: idxs}.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, g.Partial(7, true, i, 2))
	}
	merged, err := trace.MergePartials(parts...)
	if err != nil {
		t.Fatal(err)
	}
	g, err := runner.FromPartial(spec, merged)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runner.Reduce(spec, g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shard+merge table differs from local run")
	}
}

func TestRunSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for x := 0; x < 20; x++ {
		for r := 0; r < 10; r++ {
			s := runSeed(1, x, r)
			if seen[s] {
				t.Fatalf("seed collision at x=%d r=%d", x, r)
			}
			seen[s] = true
		}
	}
}

func TestPickHelpers(t *testing.T) {
	full := Options{}
	quickO := Options{Quick: true}
	if pick(full, 10, 2) != 10 || pick(quickO, 10, 2) != 2 {
		t.Fatal("pick wrong")
	}
	if got := pickSizes(quickO, []int{1}, []int{2, 3}); len(got) != 2 {
		t.Fatal("pickSizes wrong")
	}
	if full.seed() != 1 || (Options{Seed: 5}).seed() != 5 {
		t.Fatal("seed default wrong")
	}
}

func TestScenarioKindString(t *testing.T) {
	if commuterDynamic.String() != "commuter-dynamic" ||
		commuterStatic.String() != "commuter-static" ||
		timeZones.String() != "time-zones" {
		t.Fatal("scenario names wrong")
	}
	if scenarioKind(9).String() == "" {
		t.Fatal("unknown scenario must render")
	}
}
