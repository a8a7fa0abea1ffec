package lint

import (
	"go/ast"
	"go/types"
)

// ClockMono enforces determinism in the simulation hot paths.
//
// A sweep fans simulations out across goroutines and the study's numbers
// are only comparable because every run of the same (trace, policy, size)
// cell is bit-identical. Three stdlib conveniences silently break that:
// wall-clock reads (time.Now/Since/Until), the globally seeded math/rand
// source (randomly seeded since Go 1.20), and map iteration order. All
// three are flagged inside the deterministic packages. A map range whose
// body only deletes entries is exempt — the spec guarantees deletion
// during iteration is safe, and the result is order-independent; the β
// estimator's prune loop is the pattern's legitimate use.
var ClockMono = &Analyzer{
	Name: "clockmono",
	Doc: "flag wall-clock time, globally seeded math/rand and " +
		"order-dependent map iteration in deterministic simulation code",
	SkipTests: true,
	Run:       runClockMono,
}

// ClockMonoPackages names the packages (by package name) whose behavior
// must be a pure function of the trace and configuration: the simulator,
// and the characterization (Tables 1–5) and generator (its pinned digests)
// whose output the reproduction is compared by.
var ClockMonoPackages = map[string]bool{
	"core":    true,
	"policy":  true,
	"pqueue":  true,
	"intlist": true,
	"analyze": true,
	"stats":   true,
	"synth":   true,
}

// globalRandFuncs are the math/rand package-level functions that draw from
// the shared, randomly seeded source. Constructors (New, NewSource) are
// fine: they are how deterministic code gets a seeded generator.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

func runClockMono(pass *Pass) error {
	if pass.Pkg == nil || !ClockMonoPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkClockCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkClockCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return // methods (e.g. on a locally seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(),
				"time.%s in deterministic simulation code; thread an injectable clock instead", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"global math/rand source is randomly seeded; draw from a local rand.New(rand.NewSource(seed))")
		}
	}
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt) {
	t := pass.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if deleteOnlyBody(pass.Info, rs.Body.List) {
		return
	}
	pass.Reportf(rs.Range,
		"map iteration order is nondeterministic in simulation code; iterate a sorted key slice (delete-only prune loops are exempt)")
}

// deleteOnlyBody reports whether every statement is a delete call, a
// branch, or an if composed of the same — the order-independent prune
// shape.
func deleteOnlyBody(info *types.Info, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok || !isBuiltinDelete(info, call) {
				return false
			}
		case *ast.IfStmt:
			if s.Init != nil || !deleteOnlyBody(info, s.Body.List) {
				return false
			}
			if s.Else != nil {
				eb, ok := s.Else.(*ast.BlockStmt)
				if !ok || !deleteOnlyBody(info, eb.List) {
					return false
				}
			}
		case *ast.BranchStmt, *ast.EmptyStmt:
		default:
			return false
		}
	}
	return true
}

func isBuiltinDelete(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "delete"
}
