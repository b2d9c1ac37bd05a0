// Package ctxpass checks the PR 2 cancellation seam: ctx must thread
// through the library. Two rules, both over non-main packages (binaries
// own their root contexts) and both overridable with
// `//lint:allow ctxpass <reason>`:
//
//  1. context.Background() / context.TODO() inside library code is a
//     broken thread: the DP and auditor loops poll ctx every few
//     thousand states, but only if callers pass one down. The few
//     places that must anchor a fresh root carry the annotation with a
//     rationale: the two recovery-replay roots (storage and the run
//     store), feedback's root for bounded structural operations, and
//     soundness.ValidateViewParallel, the one non-ctx twin kept for a
//     caller outside this module.
//  2. Calling F when FCtx exists (same package, or same method set)
//     while a ctx is in scope silently drops cancellation on the floor.
package ctxpass

import (
	"go/ast"
	"go/types"
	"strings"

	"wolves/internal/analysis/lint"
)

// Analyzer implements the check.
var Analyzer = &lint.Analyzer{
	Name: "ctxpass",
	Doc: "library code must thread ctx: no context.Background()/TODO() outside binaries, " +
		"and no call to a non-ctx wrapper when the ...Ctx variant exists and a ctx is in scope",
	Run: run,
}

func run(pass *lint.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil
	}
	ctxType := contextType(pass.Pkg)
	for _, f := range pass.Files {
		walkFuncs(pass, f, ctxType)
	}
	return nil, nil
}

// contextType resolves context.Context from the package's imports, or
// nil when the package never touches context.
func contextType(pkg *types.Package) types.Type {
	for _, imp := range pkg.Imports() {
		if imp.Path() == "context" {
			if tn, ok := imp.Scope().Lookup("Context").(*types.TypeName); ok {
				return tn.Type()
			}
		}
	}
	return nil
}

// walkFuncs visits every function body tracking whether a ctx parameter
// is in scope (directly or via an enclosing closure).
func walkFuncs(pass *lint.Pass, f *ast.File, ctxType types.Type) {
	var visit func(n ast.Node, ctxInScope bool)
	visit = func(n ast.Node, ctxInScope bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					visit(n.Body, hasCtxParam(pass, n.Type, ctxType))
				}
				return false
			case *ast.FuncLit:
				visit(n.Body, ctxInScope || hasCtxParam(pass, n.Type, ctxType))
				return false
			case *ast.CallExpr:
				checkCall(pass, n, ctxInScope, ctxType)
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			visit(fd.Body, hasCtxParam(pass, fd.Type, ctxType))
		}
	}
}

// hasCtxParam reports whether the function type declares a parameter of
// type context.Context.
func hasCtxParam(pass *lint.Pass, ft *ast.FuncType, ctxType types.Type) bool {
	if ctxType == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && types.Identical(tv.Type, ctxType) {
			return true
		}
	}
	return false
}

// checkCall applies both rules to one call expression.
func checkCall(pass *lint.Pass, call *ast.CallExpr, ctxInScope bool, ctxType types.Type) {
	callee := calleeFunc(pass, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}

	// Rule 1: fresh root contexts in library code.
	if callee.Pkg().Path() == "context" {
		if name := callee.Name(); name == "Background" || name == "TODO" {
			if ctxInScope {
				pass.Reportf(call.Pos(), "context.%s() discards the ctx already in scope; pass it through", name)
			} else {
				pass.Reportf(call.Pos(),
					"context.%s() in library code breaks the cancellation thread; accept a ctx parameter "+
						"(compat wrappers annotate //lint:allow ctxpass with a rationale)", name)
			}
		}
		return
	}

	// Rule 2: dropping ctx by calling the non-ctx wrapper.
	if !ctxInScope {
		return
	}
	name := callee.Name()
	if strings.HasSuffix(name, "Ctx") {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || takesCtx(sig, ctxType) {
		return
	}
	variant := name + "Ctx"
	if recv := sig.Recv(); recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, callee.Pkg(), variant)
		if v, ok := obj.(*types.Func); ok && takesCtx(v.Type().(*types.Signature), ctxType) {
			pass.Reportf(call.Pos(), "call to %s drops the in-scope ctx; use %s", name, variant)
		}
		return
	}
	if v, ok := callee.Pkg().Scope().Lookup(variant).(*types.Func); ok {
		if sig, ok := v.Type().(*types.Signature); ok && takesCtx(sig, ctxType) {
			pass.Reportf(call.Pos(), "call to %s drops the in-scope ctx; use %s", name, variant)
		}
	}
}

// takesCtx reports whether the signature accepts a context.Context.
func takesCtx(sig *types.Signature, ctxType types.Type) bool {
	if ctxType == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if types.Identical(sig.Params().At(i).Type(), ctxType) {
			return true
		}
	}
	return false
}

// calleeFunc resolves the called function object, nil for builtins,
// conversions and dynamic calls.
func calleeFunc(pass *lint.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
