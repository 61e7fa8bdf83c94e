// Package determinism defines an analyzer that keeps wall-clock time
// and unseeded randomness out of simulation code.
//
// Every figure in figures_output.txt is reproducible only because the
// discrete-event simulator advances a virtual clock and every random
// choice flows from an explicit seed. A single call to time.Now or the
// global math/rand functions silently breaks that: runs stop being
// comparable and the paper's latency/partial-update numbers can no
// longer be regenerated bit-for-bit.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hpsockets/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "determinism",
	Doc: `forbid wall-clock time, global math/rand, and order-sensitive map iteration in simulation code

Flags, in non-test files:

  - calls to time.Now, time.Since, and time.Sleep: simulation code must
    use the sim kernel's virtual clock (sim.Time, Proc.Now, Proc.Sleep);
  - calls to the global top-level math/rand (and math/rand/v2)
    functions such as rand.Intn or rand.Shuffle: randomness must come
    from an explicitly seeded *rand.Rand instance (rand.New,
    rand.NewSource and friends are allowed);
  - in the deterministic packages (internal/sim, internal/core,
    internal/datacutter, internal/cluster, internal/experiments,
    internal/scenario),
    a range over a map whose body feeds an ordered output — appending
    to a slice declared outside the loop or sending on a channel —
    because map iteration order would leak into results. Iterate over
    a sorted copy of the keys instead; collecting keys into a slice
    that is subsequently passed to sort or slices is recognized as
    exactly that idiom and allowed.`,
	Run: run,
}

// bannedTime are the time package functions that read or consume the
// wall clock.
var bannedTime = map[string]bool{"Now": true, "Since": true, "Sleep": true}

// allowedRand are the top-level math/rand functions that construct
// explicitly seeded generators rather than using the global one.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors.
	"NewPCG": true, "NewChaCha8": true,
}

// orderedPackages are the import-path suffixes subject to the
// map-iteration-order rule.
var orderedPackages = []string{
	"internal/sim",
	"internal/core",
	"internal/datacutter",
	"internal/cluster",
	"internal/experiments",
	// The scenario DSL compiles files into fault plans; map order
	// leaking into a compiled plan would break byte-identical replay
	// of checked-in scenarios.
	"internal/scenario",
}

func inOrderedPackage(path string) bool {
	for _, s := range orderedPackages {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) (any, error) {
	ordered := inOrderedPackage(pass.Pkg.Path())
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		framework.WithStackNode(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				if ordered {
					checkMapRange(pass, n, framework.EnclosingFunc(stack))
				}
			}
			return true
		})
	}
	return nil, nil
}

func isTestFile(pass *framework.Pass, f *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
}

// checkCall flags wall-clock and global-rand calls.
func checkCall(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return // a method, e.g. (*rand.Rand).Intn — instance use is fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			pass.Reportf(call.Pos(),
				"call to time.%s in simulation code: use the sim kernel's virtual clock (sim.Time, Proc.Now, Proc.Sleep)",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[fn.Name()] {
			pass.Reportf(call.Pos(),
				"global rand.%s uses the shared unseeded generator: draw from an explicitly seeded *rand.Rand instance",
				fn.Name())
		}
	}
}

// checkMapRange flags `for ... range m` over a map whose body appends
// to an outer slice or sends on a channel: map order would become
// output order.
func checkMapRange(pass *framework.Pass, rs *ast.RangeStmt, enclosing ast.Node) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	var sink string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "sends on a channel"
			return false
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "append" || len(call.Args) == 0 {
					continue
				}
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
					continue
				}
				base, ok := call.Args[0].(*ast.Ident)
				if !ok || !declaredOutside(pass, base, rs) {
					continue
				}
				// The standard deterministic idiom collects the keys
				// and sorts them before use; a slice that is sorted
				// after the loop is fine.
				if sortedAfter(pass, enclosing, pass.TypesInfo.Uses[base], rs.End()) {
					continue
				}
				sink = "appends to " + base.Name
				return false
			}
		}
		return true
	})
	if sink != "" {
		pass.Reportf(rs.Pos(),
			"range over map %s inside it: map iteration order is nondeterministic and would leak into ordered output; iterate over a sorted copy of the keys",
			sink)
	}
}

// sortedAfter reports whether obj is passed to a sort or slices
// function after pos within the enclosing function.
func sortedAfter(pass *framework.Pass, enclosing ast.Node, obj types.Object, pos token.Pos) bool {
	if enclosing == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pkgName.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// declaredOutside reports whether id resolves to a variable declared
// outside the range statement.
func declaredOutside(pass *framework.Pass, id *ast.Ident, rs *ast.RangeStmt) bool {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return false
	}
	pos := obj.Pos()
	return pos != token.NoPos && (pos < rs.Pos() || pos >= rs.End())
}
