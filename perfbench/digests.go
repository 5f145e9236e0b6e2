package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/experiments/runner"
)

// digestSeeds are the repo's byte-identity seeds; digests.json pins the
// figure cells of both.
var digestSeeds = []int64{1, 7}

//go:embed digests.json
var digestsJSON []byte

// digestTable maps workload → seed → cell label → cellDigest.
type digestTable map[string]map[string]map[string]string

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

// cellDigest hashes the exact bits of a cell's values: any flipped bit in
// any value changes it.
func cellDigest(vals []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func fmtSeed(s int64) string { return fmt.Sprint(s) }

func (c figCell) label() string { return fmt.Sprintf("x%dv%dr%d", c.x, c.v, c.run) }

// checkFigureDigests checks a run's cell values against the committed
// digests. Runs on a digest seed check every cell of the pass; other seeds
// evaluate one cell of a digest seed (chosen by the run's seed, so a
// series of runs covers the set) outside the timed passes.
func checkFigureDigests(w *figWorkload, seed int64, vals [][]float64, workers int, out *result) {
	table, err := loadDigests()
	if err != nil {
		out.fail("%v", err)
		return
	}
	for _, ds := range digestSeeds {
		if seed == ds {
			for i, c := range w.cells {
				out.attempted++
				if want := table[w.name][fmtSeed(ds)][c.label()]; cellDigest(vals[i]) != want {
					out.fail("%s seed %d cell %s: digest %s, committed %s", w.name, ds, c.label(), cellDigest(vals[i]), want)
				}
			}
			return
		}
	}
	ds := digestSeeds[uint64(seed)%uint64(len(digestSeeds))]
	c := w.cells[uint64(seed)%uint64(len(w.cells))]
	out.attempted++
	got, err := evalCells(w, ds, []figCell{c}, workers)
	if err != nil {
		out.fail("%s check cell: %v", w.name, err)
		return
	}
	if want := table[w.name][fmtSeed(ds)][c.label()]; cellDigest(got[0]) != want {
		out.fail("%s seed %d cell %s: digest %s, committed %s", w.name, ds, c.label(), cellDigest(got[0]), want)
	}
}

// evalCells evaluates cells of the workload's figure spec under a seed.
func evalCells(w *figWorkload, seed int64, cells []figCell, workers int) ([][]float64, error) {
	spec, err := experiments.NewSpec(w.spec, experiments.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	sub := &figWorkload{name: w.name, cells: cells}
	idxs, err := sub.indexes(spec)
	if err != nil {
		return nil, err
	}
	g, err := runner.CellSet{Idxs: idxs, Workers: workers}.Run(spec)
	if err != nil {
		return nil, err
	}
	return sub.values(g), nil
}

// printDigests recomputes digests.json for every figure workload on the
// digest seeds (perfbench --print-digests > perfbench/digests.json).
func printDigests() error {
	table := digestTable{}
	for _, w := range []*figWorkload{fig7Workload, fig10Workload} {
		table[w.name] = map[string]map[string]string{}
		for _, ds := range digestSeeds {
			vals, err := evalCells(w, ds, w.cells, runtime.GOMAXPROCS(0))
			if err != nil {
				return err
			}
			cells := map[string]string{}
			for i, c := range w.cells {
				cells[c.label()] = cellDigest(vals[i])
			}
			table[w.name][fmtSeed(ds)] = cells
		}
	}
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
