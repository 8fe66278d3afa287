package analysis

import (
	"go/ast"
	"go/types"
)

// pmemPkgPath is the simulated-device package whose accessors carry the
// latency model and line accounting.
const pmemPkgPath = "learnedpieces/internal/pmem"

// PMemDiscipline keeps every PMem byte behind the pmem.Region accessors.
// The zero-copy view ReadNoCopy hands out is a *read-only borrow*: a
// caller outside internal/pmem may decode it and pass it along, but must
// never write through it (that write would bypass the latency model and
// the device's line accounting) and must never park it in a struct field
// or package variable (a retained alias turns later "device reads" into
// free DRAM reads, silently corrupting AccessStats and every figure
// derived from it).
//
// The analyzer tracks, per function, the local variables that alias a
// ReadNoCopy (or ReadNoCopyTail) result (including re-slicings) and reports
//
//   - writes through an alias: v[i] = x, copy(v, ...)
//   - retention of an alias in a struct field or package-level variable
//
// Returning an alias to the caller remains legal — that is the store's
// documented "valid until the next mutation, do not modify" contract.
var PMemDiscipline = &Analyzer{
	Name: "pmem-discipline",
	Doc:  "PMem bytes stay behind Region accessors: no writes through, no retention of, zero-copy views",
	Run: func(pass *Pass) {
		if pass.Pkg.Pkg.Path() == pmemPkgPath {
			return
		}
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkPMemFunc(pass, fd.Body)
			}
		}
	},
}

func checkPMemFunc(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	tracked := make(map[*types.Var]bool)

	// aliases reports whether e evaluates to PMem-backed bytes: a direct
	// ReadNoCopy call, a tracked local, or a re-slicing of either.
	var aliases func(e ast.Expr) bool
	aliases = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.CallExpr:
			return isReadNoCopy(info, e)
		case *ast.Ident:
			v, ok := info.Uses[e].(*types.Var)
			return ok && tracked[v]
		case *ast.SliceExpr:
			return aliases(e.X)
		case *ast.ParenExpr:
			return aliases(e.X)
		}
		return false
	}

	// Collect tracked locals to a fixpoint (aliases of aliases converge
	// in at most a handful of rounds for real code).
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !aliases(as.Rhs[i]) {
					continue
				}
				var v *types.Var
				if def, ok := info.Defs[id].(*types.Var); ok {
					v = def
				} else if use, ok := info.Uses[id].(*types.Var); ok {
					v = use
				}
				if v != nil && !tracked[v] {
					tracked[v] = true
					changed = true
				}
			}
			return true
		})
	}

	// containsAlias reports whether any subexpression aliases the region.
	containsAlias := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if expr, ok := n.(ast.Expr); ok && aliases(expr) {
				found = true
			}
			return !found
		})
		return found
	}

	pkgScope := pass.Pkg.Pkg.Scope()
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				switch lhs := lhs.(type) {
				case *ast.IndexExpr:
					if aliases(lhs.X) {
						pass.Reportf(lhs.Pos(), "write through PMem-backed bytes bypasses Region.Write and its latency/line accounting")
					}
				case *ast.SelectorExpr:
					if containsAlias(n.Rhs[i]) && isFieldSelector(info, lhs) {
						pass.Reportf(n.Rhs[i].Pos(), "PMem-backed bytes retained in a struct field; later reads would bypass the Region latency model — copy via Region.Read instead")
					}
				case *ast.Ident:
					if obj, ok := info.Uses[lhs].(*types.Var); ok && obj.Parent() == pkgScope && containsAlias(n.Rhs[i]) {
						pass.Reportf(n.Rhs[i].Pos(), "PMem-backed bytes retained in package variable %s; later reads would bypass the Region latency model — copy via Region.Read instead", lhs.Name)
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) >= 1 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" && aliases(n.Args[0]) {
					pass.Reportf(n.Args[0].Pos(), "copy into PMem-backed bytes bypasses Region.Write and its latency/line accounting")
				}
			}
		}
		return true
	})
}

// isReadNoCopy reports whether call is one of the zero-copy view
// accessors, (*pmem.Region).ReadNoCopy or ReadNoCopyTail.
func isReadNoCopy(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	return ok && (fn.Name() == "ReadNoCopy" || fn.Name() == "ReadNoCopyTail") &&
		fn.Pkg() != nil && fn.Pkg().Path() == pmemPkgPath
}

// isFieldSelector reports whether sel selects a struct field (as opposed
// to a qualified package identifier).
func isFieldSelector(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}
