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

// TestFuzzShortRunsEveryTarget: the Makefile's fuzz-short recipe names
// every Fuzz* target in the tree, each in its own package, and nothing
// else. A target the recipe leaves out is never fuzzed, and nothing
// says so.
func TestFuzzShortRunsEveryTarget(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(raw), "\nfuzz-short:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz-short target")
	}
	line := regexp.MustCompile(`-fuzz '\^(Fuzz\w+)\$\$' .* \./(\S+)$`)
	listed := map[string]bool{}
	for _, l := range strings.Split(recipe, "\n") {
		if !strings.HasPrefix(l, "\t") {
			break
		}
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("fuzz-short: cannot read %q", l)
			continue
		}
		listed[m[2]+"."+m[1]] = true
	}

	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") {
				continue
			}
			target := filepath.ToSlash(filepath.Dir(path)) + "." + fn.Name.Name
			if !listed[target] {
				t.Errorf("%s: %s is not in make fuzz-short", path, fn.Name.Name)
			}
			delete(listed, target)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for target := range listed {
		t.Errorf("make fuzz-short runs %s, which the tree does not have", target)
	}
}
