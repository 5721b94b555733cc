package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// tokenPos converts a sortable int back to a token.Pos.
func tokenPos(p int) token.Pos { return token.Pos(p) }

// walkStack traverses root depth-first, passing each node together
// with its ancestor stack (outermost first, not including the node
// itself). Returning false skips the node's children.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// namedType unwraps pointers and aliases down to a *types.Named, or
// nil.
func namedType(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// isNamed reports whether t (possibly behind pointers) is the named
// type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// calleeFunc resolves a call expression to the *types.Func it invokes,
// or nil (builtins, conversions, function-valued variables).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// typeString prints a type with package-name (not import-path)
// qualification, matching how diagnostics read in editors.
func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// enclosingFunc returns the innermost function body containing the
// stacked node, and the index of that function node in the stack.
func enclosingFunc(stack []ast.Node) (body *ast.BlockStmt, idx int) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body, i
		case *ast.FuncLit:
			return f.Body, i
		}
	}
	return nil, -1
}
