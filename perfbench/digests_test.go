package main

import (
	"math"
	"testing"
)

func TestCellDigestRejectsAFlippedBit(t *testing.T) {
	vals := []float64{1.2503337641394012e+06, 5057.932241814857}
	base := cellDigest(vals)
	for i := range vals {
		for _, bit := range []uint{0, 17, 51, 52, 63} {
			flipped := append([]float64(nil), vals...)
			flipped[i] = math.Float64frombits(math.Float64bits(vals[i]) ^ 1<<bit)
			if cellDigest(flipped) == base {
				t.Errorf("value %d bit %d flipped, digest unchanged", i, bit)
			}
		}
	}
	if cellDigest(vals) != base {
		t.Error("digest not deterministic")
	}
}

func TestCommittedDigestsCoverEveryCell(t *testing.T) {
	table, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*figWorkload{fig7Workload, fig10Workload} {
		for _, ds := range digestSeeds {
			for _, c := range w.cells {
				if len(table[w.name][fmtSeed(ds)][c.label()]) != 32 {
					t.Errorf("%s seed %d: no digest for cell %s", w.name, ds, c.label())
				}
			}
		}
	}
}

// One real cell of Figure 10 on a digest seed matches its committed digest,
// and the same check fails once a single bit of the value is flipped.
func TestDigestCheckOnARealCell(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates a paper-scale figure cell")
	}
	w := fig10Workload
	c := figCell{x: 0, v: 0}
	vals, err := evalCells(w, 7, []figCell{c}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sub := &figWorkload{name: w.name, cells: []figCell{c}}
	good := &result{correct: true}
	checkFigureDigests(sub, 7, vals, 2, good)
	if !good.correct || good.failed != 0 {
		t.Fatalf("committed digest rejected the real value: %v", good.notes)
	}
	vals[0][0] = math.Float64frombits(math.Float64bits(vals[0][0]) ^ 1)
	bad := &result{correct: true}
	checkFigureDigests(sub, 7, vals, 2, bad)
	if bad.correct || bad.failed != 1 {
		t.Fatalf("flipped bit passed the digest check: %+v", bad)
	}
}
