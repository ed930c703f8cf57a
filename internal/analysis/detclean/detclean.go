// Package detclean implements the determinism analyzer: the simulator,
// the model checker and the fault-injection schedules must be a pure
// function of their seed, so the packages they live in may not read the
// wall clock, draw from the process-global random source, or emit
// map-iteration-ordered output.
//
// Rules, in the deterministic packages (internal/des, internal/engine,
// internal/host, internal/netsim, internal/model, internal/faultnet,
// internal/handshake):
//
//   - no wall-clock or timer calls (time.Now, time.Since, time.Sleep,
//     time.After, time.AfterFunc, time.Tick, time.NewTimer,
//     time.NewTicker, time.Until) — virtual time comes from the
//     simulator;
//   - no package-global math/rand functions (rand.Intn, rand.Float64,
//     rand.Shuffle, ...); constructing a seeded source with rand.New /
//     rand.NewSource and calling methods on the resulting *rand.Rand is
//     the sanctioned pattern;
//   - no ranging over a map unless the statement carries
//     //ocsml:unordered <why>, asserting the loop body is
//     order-insensitive (e.g. it fills a set that is sorted afterwards).
//
// Everywhere else (transport, cmd/...), real time is legitimate
// but must be declared: time.Now and time.Since require a
// //ocsml:wallclock <why> directive on the call line or the line above,
// and the package-global rand functions require the same. This keeps
// the full inventory of nondeterminism greppable.
//
// A file inside a deterministic package that is genuinely the real-time
// half of its subsystem (faultnet's injector applies seeded schedules
// to a live TCP mesh) declares //ocsml:realtime <why> once, anywhere in
// the file, and is then held to the directive-gated rules instead of
// the strict ones.
package detclean

import (
	"go/ast"
	"go/types"

	"ocsml/internal/analysis/vetkit"
)

// DeterministicSuffixes lists the import-path suffixes of the packages
// that must stay seed-pure.
var DeterministicSuffixes = []string{
	"internal/des",
	"internal/engine",
	"internal/host",
	"internal/netsim",
	"internal/model",
	"internal/faultnet",
	"internal/handshake",
}

// wallClockFuncs are the package-level time functions that read or wait
// on real time.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Sleep": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true,
	"NewTicker": true, "Until": true,
}

// directiveGated are the time functions that, outside the deterministic
// packages, are allowed with a //ocsml:wallclock directive. The timer
// primitives (AfterFunc etc.) are the event-loop mechanics of the real
// runtime and stay unrestricted there.
var directiveGated = map[string]bool{"Now": true, "Since": true}

// randConstructors are the package-level math/rand functions that build
// a seeded source instead of consuming the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2
	"NewPCG": true, "NewChaCha8": true,
}

// Analyzer is the detclean analysis.
var Analyzer = &vetkit.Analyzer{
	Name: "detclean",
	Doc:  "forbid wall-clock reads, global rand and unordered map iteration in the deterministic packages",
	Run:  run,

	Directives: []string{"realtime", "wallclock", "unordered"},
}

func run(pass *vetkit.Pass) error {
	deterministic := false
	for _, suf := range DeterministicSuffixes {
		if vetkit.PathHasSuffix(pass.Pkg.Path(), suf) {
			deterministic = true
			break
		}
	}
	dirs := pass.Program.Directives()
	for _, f := range pass.Files {
		deterministic := deterministic
		if dirs.FileHas(f.Pos(), "realtime") {
			deterministic = false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj := pass.TypesInfo.Uses[n.Sel]
				fn, ok := obj.(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // method, e.g. (*rand.Rand).Intn — fine
				}
				switch fn.Pkg().Path() {
				case "time":
					if !wallClockFuncs[fn.Name()] {
						return true
					}
					if deterministic {
						pass.Reportf(n.Pos(), "time.%s in deterministic package %s: virtual time must come from the simulator", fn.Name(), pass.Pkg.Path())
					} else if directiveGated[fn.Name()] && !dirs.Has(n.Pos(), "wallclock") {
						pass.Reportf(n.Pos(), "time.%s without //ocsml:wallclock directive: declare why real time is safe here", fn.Name())
					}
				case "math/rand", "math/rand/v2":
					if randConstructors[fn.Name()] {
						return true
					}
					if deterministic {
						pass.Reportf(n.Pos(), "global rand.%s in deterministic package %s: draw from a seeded *rand.Rand", fn.Name(), pass.Pkg.Path())
					} else if !dirs.Has(n.Pos(), "wallclock") {
						pass.Reportf(n.Pos(), "global rand.%s without //ocsml:wallclock directive: use a seeded *rand.Rand", fn.Name())
					}
				}
			case *ast.RangeStmt:
				if !deterministic {
					return true
				}
				tv, ok := pass.TypesInfo.Types[n.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if dirs.Has(n.Pos(), "unordered") {
					return true
				}
				pass.Reportf(n.Pos(), "map iteration order leaks into deterministic package %s: sort the keys, or annotate //ocsml:unordered <why> if the body is order-insensitive", pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
