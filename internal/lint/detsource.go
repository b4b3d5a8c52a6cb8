package lint

import "go/ast"

// Detsource forbids wall-clock reads and unseeded global randomness in
// simulation packages.  A call to time.Now (or any process-global
// random source) makes the run a function of the host machine instead
// of the inputs, silently voiding the determinism contract that lets
// every timing figure regenerate bit-for-bit.
//
// Explicitly seeded generators stay legal: rand.New(rand.NewSource(s))
// is the sanctioned pattern (see the Arctic fabric's adaptive-routing
// RNG), because the seed is part of the simulation's input.  The
// fault-injection plan's splitmix64 generator (fault.NewPRNG) is the
// other registered source: it is seeded exclusively from fault.Config
// and never touches math/rand, so the rule's ban on the global source
// covers fault plans too — a plan drawing from rand.Float64 is flagged
// like any other sim-core code.
var Detsource = &Analyzer{
	Name: "detsource",
	Run:  runDetsource,
}

// bannedTimeFuncs are the wall-clock entry points in package time.
// (time.Sleep blocks real time, equally illegal in virtual time.)
var bannedTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
	"Sleep": true,
	"Tick":  true,
	"After": true,
}

// seededRandFuncs are the math/rand (and math/rand/v2) package-level
// functions that construct explicit generators rather than consult the
// global source.
var seededRandFuncs = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runDetsource(pass *Pass) {
	inspectAll(pass, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn := funcFor(pass.TypesInfo, sel.Sel)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if recvOf(fn) != nil {
			// Methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are
			// fine: the hazard is the process-global state behind
			// the package-level functions.
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			if bannedTimeFuncs[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock and breaks simulation determinism; use the engine's virtual clock (Engine.Now)", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !seededRandFuncs[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"rand.%s draws from the process-global source and breaks simulation determinism; use rand.New(rand.NewSource(seed)) with a configured seed", fn.Name())
			}
		}
		return true
	})
}
