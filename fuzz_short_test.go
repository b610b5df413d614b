package e2eqos_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// recipe returns the command lines of a Makefile target's recipe.
func recipe(t *testing.T, target string) []string {
	t.Helper()
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(raw), "\n"+target+":\n")
	if !ok {
		t.Fatalf("Makefile has no %s target", target)
	}
	var lines []string
	for _, l := range strings.Split(body, "\n") {
		if !strings.HasPrefix(l, "\t") {
			break
		}
		lines = append(lines, l)
	}
	return lines
}

// eachTestFunc calls fn with the slash-separated directory and the name
// of every top-level function in every _test.go file of the tree. Files
// are parsed whatever their build tags.
func eachTestFunc(t *testing.T, fn func(dir, name string)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil {
				fn(filepath.ToSlash(filepath.Dir(path)), d.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFuzzShortRunsEveryTarget: the Makefile's fuzz-short recipe names
// every Fuzz* target in the tree, each in its own package, and nothing
// else. A target the recipe leaves out is never fuzzed, and nothing
// says so.
func TestFuzzShortRunsEveryTarget(t *testing.T) {
	line := regexp.MustCompile(`-fuzz '\^(Fuzz\w+)\$\$' .* \./(\S+)$`)
	listed := map[string]bool{}
	for _, l := range recipe(t, "fuzz-short") {
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("fuzz-short: cannot read %q", l)
			continue
		}
		listed[m[2]+"."+m[1]] = true
	}
	eachTestFunc(t, func(dir, name string) {
		if !strings.HasPrefix(name, "Fuzz") {
			return
		}
		if !listed[dir+"."+name] {
			t.Errorf("%s: %s is not in make fuzz-short", dir, name)
		}
		delete(listed, dir+"."+name)
	})
	for target := range listed {
		t.Errorf("make fuzz-short runs %s, which the tree does not have", target)
	}
}

// TestAllocGateCoversEveryPackage: the Makefile's alloc-gate recipe
// names exactly the packages that hold a Test…AllocationFree or
// Test…AllocationBound test. A package it leaves out keeps its bound
// out of the gate, and nothing says so.
func TestAllocGateCoversEveryPackage(t *testing.T) {
	lines := recipe(t, "alloc-gate")
	if len(lines) != 1 {
		t.Fatalf("alloc-gate: want one go test line, have %q", lines)
	}
	listed := map[string]bool{}
	for _, f := range strings.Fields(lines[0]) {
		if dir, ok := strings.CutPrefix(f, "./"); ok {
			listed[dir] = true
		}
	}
	held := map[string]bool{}
	eachTestFunc(t, func(dir, name string) {
		if strings.HasPrefix(name, "Test") && (strings.Contains(name, "AllocationFree") || strings.Contains(name, "AllocationBound")) {
			held[dir] = true
		}
	})
	for dir := range held {
		if !listed[dir] {
			t.Errorf("%s holds an allocation test that make alloc-gate does not run", dir)
		}
	}
	for dir := range listed {
		if !held[dir] {
			t.Errorf("make alloc-gate runs ./%s, which holds no allocation test", dir)
		}
	}
}
