// Package detrand flags wall-clock and ambiently-seeded randomness in
// code that is contractually deterministic. Every parity guarantee in
// this repo (bit-identical ledgers, byte-identical figure stdout,
// replayable WALs) assumes all randomness derives from an explicit seed
// and no result depends on the wall clock. A single time.Now() or
// global rand.Intn() in a deterministic package silently breaks that on
// some run without failing any unit test.
//
// Flagged:
//   - time.Now, time.Since, time.Until (wall clock)
//   - the global functions of math/rand and math/rand/v2 (process-wide
//     generator, ambient seed) — constructing a seeded *rand.Rand via
//     rand.New(rand.NewSource(seed)) is fine
//   - crypto/rand (nondeterministic by design)
//
// Wall-clock-by-design layers (the runner pool's deadlines
// and backoff jitter; serve's admission timestamps and latency
// percentiles; CLI progress logs) suppress findings per use with
//
//	//repcheck:allow-wallclock <why this layer owns wall-clock time>
package detrand

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the detrand pass.
var Analyzer = &analysis.Analyzer{
	Name:      "detrand",
	Directive: "wallclock",
	Doc: "flags wall-clock reads and ambiently-seeded randomness in deterministic packages; " +
		"suppress in wall-clock-by-design code with //repcheck:allow-wallclock <reason>",
	Run: run,
}

// banned maps package path → function names whose mere use is a
// finding. A nil set bans every package-level function.
var banned = map[string]map[string]bool{
	"time": {"Now": true, "Since": true, "Until": true},
	"math/rand": {
		"Int": true, "Intn": true, "Int31": true, "Int31n": true,
		"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
		"Float32": true, "Float64": true, "ExpFloat64": true,
		"NormFloat64": true, "Perm": true, "Shuffle": true,
		"Seed": true, "Read": true,
	},
	"math/rand/v2": {
		"Int": true, "IntN": true, "Int32": true, "Int32N": true,
		"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
		"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
		"Float32": true, "Float64": true, "ExpFloat64": true,
		"NormFloat64": true, "Perm": true, "Shuffle": true, "N": true,
	},
	"crypto/rand": nil,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			fn, ok := obj.(*types.Func)
			if !ok {
				// crypto/rand.Reader is a var; catch any object from a
				// fully-banned package.
				if names, banned := banned[obj.Pkg().Path()]; banned && names == nil {
					report(pass, id, obj)
				}
				return true
			}
			if fn.Signature().Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are seeded by construction
			}
			names, ok := banned[obj.Pkg().Path()]
			if !ok {
				return true
			}
			if names == nil || names[fn.Name()] {
				report(pass, id, obj)
			}
			return true
		})
	}
	return nil
}

func report(pass *analysis.Pass, id *ast.Ident, obj types.Object) {
	pass.Reportf(id.Pos(),
		"%s.%s is nondeterministic (wall clock or ambient seed); derive state from an explicit seed "+
			"or annotate //repcheck:allow-wallclock <reason> if this layer is wall-clock by design",
		obj.Pkg().Path(), obj.Name())
}
