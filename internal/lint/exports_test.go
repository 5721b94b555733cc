package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed lists the exported package-level functions under
// internal/ that no non-test file of the module calls, each with the
// reason it stays.
var uncalledAllowed = map[string]string{
	"vmp/internal/experiments.DefaultOptions": "the full-fidelity Options value for library callers and the experiments tests",
	"vmp/internal/lint.Unsuppressed":          "the self-tests' pass/fail filter (TestRepoIsClean, the leakcheck load test)",
}

// TestNoUncalledExports keeps dead internal API from growing back: every
// exported package-level function in internal/... must be referenced
// by some non-test file of the module, or carry a reason in
// uncalledAllowed, and every uncalledAllowed entry must name such a
// function. Methods are out of scope: interface satisfaction
// makes "uncalled" ambiguous for them. Callers in the separate
// perfbench module are not seen, so a function only it calls needs an
// allowlist entry.
func TestNoUncalledExports(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	pkgs := modulePackages(t)
	// Imports resolve through export data, so a use in one package and
	// the definition in another are distinct objects: match by name.
	used := make(map[string]bool)
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if key, ok := funcKey(obj); ok {
				used[key] = true
			}
		}
	}
	var dead []string
	defined := make(map[string]bool)
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "vmp/internal/") {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			key, ok := funcKey(scope.Lookup(name))
			if !ok || !ast.IsExported(name) {
				continue
			}
			defined[key] = true
			_, allowed := uncalledAllowed[key]
			switch {
			case !used[key] && !allowed:
				dead = append(dead, key+": exported function with no non-test caller; delete it or add it to uncalledAllowed with a reason")
			case used[key] && allowed:
				dead = append(dead, key+": has a caller now; drop its uncalledAllowed entry")
			}
		}
	}
	for key := range uncalledAllowed {
		if !defined[key] {
			dead = append(dead, key+": uncalledAllowed names no exported function under internal/; drop the entry")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
}

// funcKey names a package-level function as "importpath.Name"; it
// reports false for methods and for every other kind of object.
func funcKey(obj types.Object) (string, bool) {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "", false
	}
	return fn.Pkg().Path() + "." + fn.Name(), true
}
