package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// DetMapRange returns the detmaprange analyzer restricted to the given
// package patterns (see Analyzer.Packages).
//
// Rationale: Go randomizes map iteration order per run, so any `for
// range` over a map in a package that feeds schedules, figure CSVs or
// golden dumps is a latent determinism bug — exactly the class the
// golden tests only catch after a seed-visible divergence. The analyzer
// flags every map range in the deterministic packages unless the loop
// is provably order-insensitive:
//
//   - the loop ignores both iteration variables (len-style counting);
//   - the body only collects keys/values into a slice that a later
//     statement in the same block sorts (the canonical rewrite the
//     diagnostic asks for);
//   - the body only accumulates into integer scalars (+=, ++, |=, &=,
//     ^=), deletes the ranged key, or writes m[k] itself — operations
//     whose result is independent of visit order. Floating-point
//     accumulation is NOT exempt: FP addition does not associate, so
//     map-ordered sums diverge at the bit level goldens are pinned to.
//
// Escape hatch: a `//lint:orderinsensitive <why>` comment on or above
// the range statement, for loops whose order-independence the analyzer
// cannot see.
func DetMapRange(packages ...string) *Analyzer {
	a := &Analyzer{
		Name:     "detmaprange",
		Doc:      "flags map iteration in deterministic packages unless provably order-insensitive",
		Packages: packages,
	}
	a.Run = runDetMapRange
	return a
}

func runDetMapRange(pass *Pass) error {
	info := pass.TypesInfo()
	for _, f := range pass.Pkg.Files {
		var ranges []*ast.RangeStmt
		ast.Inspect(f, func(n ast.Node) bool {
			if r, ok := n.(*ast.RangeStmt); ok {
				ranges = append(ranges, r)
			}
			return true
		})
		for _, rng := range ranges {
			tv, ok := info.Types[rng.X]
			if !ok {
				continue
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				continue
			}
			if pass.Exempt(rng.Pos(), "orderinsensitive") {
				continue
			}
			if ignoresIterationVars(rng) {
				continue
			}
			path := pathTo(f, rng)
			if ok, slice := keyCollectLoop(info, rng); ok {
				if sortedAfter(pass, path, rng, slice) {
					continue
				}
				pass.Reportf(rng.Pos(), "range over %s collects into %q but no later sort in this block: iteration order leaks",
					exprString(pass.Fset(), rng.X), slice.Name())
				continue
			}
			if msg := commutativeBody(pass, rng); msg == "" {
				continue
			} else if msg != unexemptable {
				pass.Reportf(rng.Pos(), "range over map %s: %s", exprString(pass.Fset(), rng.X), msg)
				continue
			}
			pass.Reportf(rng.Pos(), "iteration over map %s is order-dependent in a deterministic package; collect and sort the keys (or annotate //lint:orderinsensitive)",
				exprString(pass.Fset(), rng.X))
		}
	}
	return nil
}

// unexemptable marks "report the generic diagnostic" from commutativeBody.
const unexemptable = "\x00"

// ignoresIterationVars reports a `for range m` loop (with or without
// blank idents), whose body runs len(m) times regardless of order.
func ignoresIterationVars(rng *ast.RangeStmt) bool {
	blank := func(e ast.Expr) bool {
		if e == nil {
			return true
		}
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "_"
	}
	return blank(rng.Key) && blank(rng.Value)
}

// keyCollectLoop matches a body that only appends the iteration
// variables to one slice, returning that slice's object.
func keyCollectLoop(info *types.Info, rng *ast.RangeStmt) (bool, *types.Var) {
	var slice *types.Var
	for _, stmt := range rng.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false, nil
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false, nil
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return false, nil
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false, nil
		}
		dst, ok := call.Args[0].(*ast.Ident)
		if !ok || dst.Name != lhs.Name {
			return false, nil
		}
		obj, _ := info.Uses[dst].(*types.Var)
		if obj == nil {
			obj, _ = info.Defs[lhs].(*types.Var)
		}
		if obj == nil || (slice != nil && slice != obj) {
			return false, nil
		}
		slice = obj
	}
	return slice != nil, slice
}

// sortedAfter reports whether a statement after rng in its enclosing
// block calls into sort/slices with the collected slice.
func sortedAfter(pass *Pass, path []ast.Node, rng *ast.RangeStmt, slice *types.Var) bool {
	stmts, idx := enclosingBlock(path, rng)
	if stmts == nil {
		return false
	}
	for _, stmt := range stmts[idx+1:] {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo().Uses[pkgID].(*types.PkgName)
			if !ok {
				return true
			}
			p := pn.Imported().Path()
			if p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					if id, ok := a.(*ast.Ident); ok && pass.TypesInfo().Uses[id] == slice {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// enclosingBlock returns the statement list directly containing stmt
// and stmt's index within it.
func enclosingBlock(path []ast.Node, stmt ast.Stmt) ([]ast.Stmt, int) {
	for i := len(path) - 2; i >= 0; i-- {
		var list []ast.Stmt
		switch b := path[i].(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		default:
			continue
		}
		for j, s := range list {
			if s == path[i+1] && s == ast.Stmt(stmt) {
				return list, j
			}
		}
		// stmt is nested deeper (e.g. inside an if); stop at the
		// nearest block regardless so callers scan its suffix.
		for j, s := range list {
			if s == path[i+1] {
				return list, j
			}
		}
	}
	return nil, 0
}

// commutativeBody returns "" when every statement in the loop body is
// order-insensitive, a message for flagged float accumulation, or
// unexemptable when the body doesn't fit the commutative forms at all.
func commutativeBody(pass *Pass, rng *ast.RangeStmt) string {
	info := pass.TypesInfo()
	mapText := exprString(pass.Fset(), rng.X)
	keyName := ""
	if id, ok := rng.Key.(*ast.Ident); ok {
		keyName = id.Name
	}
	sawAny := false
	for _, stmt := range rng.Body.List {
		switch s := stmt.(type) {
		case *ast.IncDecStmt:
			if msg := accumulationKind(info, s.X); msg != "" {
				return msg
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return unexemptable
			}
			// Per-key write-back into the ranged map: m[k] = ...
			if ix, ok := s.Lhs[0].(*ast.IndexExpr); ok && s.Tok == token.ASSIGN {
				if exprString(pass.Fset(), ix.X) == mapText {
					if id, ok := ix.Index.(*ast.Ident); ok && id.Name == keyName && keyName != "" {
						sawAny = true
						continue
					}
				}
				return unexemptable
			}
			switch s.Tok {
			case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
				if msg := accumulationKind(info, s.Lhs[0]); msg != "" {
					return msg
				}
			default:
				return unexemptable
			}
		case *ast.ExprStmt:
			// delete(m, k): removing the visited key is order-safe.
			call, ok := s.X.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return unexemptable
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "delete" || exprString(pass.Fset(), call.Args[0]) != mapText {
				return unexemptable
			}
			if id, ok := call.Args[1].(*ast.Ident); !ok || id.Name != keyName || keyName == "" {
				return unexemptable
			}
		default:
			return unexemptable
		}
		sawAny = true
	}
	if !sawAny {
		return unexemptable
	}
	return ""
}

// accumulationKind allows integer accumulation and names the hazard for
// anything else ("" = allowed).
func accumulationKind(info *types.Info, lhs ast.Expr) string {
	t := info.TypeOf(lhs)
	if t == nil {
		return unexemptable
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return unexemptable
	}
	switch {
	case b.Info()&types.IsInteger != 0:
		return ""
	case b.Info()&(types.IsFloat|types.IsComplex) != 0:
		return fmt.Sprintf("floating-point accumulation into %s over map order is not bit-reproducible (FP addition does not associate); collect and sort the keys first", types.TypeString(t, nil))
	default:
		return unexemptable
	}
}
