package e2eqos_test

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// nonTestImports calls visit with every import of every non-test Go
// file under root, skipping the directories in skip, and returns how
// many files it read.
func nonTestImports(t *testing.T, root string, skip []string, visit func(path, imp string)) int {
	t.Helper()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			for _, s := range skip {
				if path == filepath.FromSlash(s) {
					return fs.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			name, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			visit(path, name)
		}
		return nil
	})
	if err != nil {
		t.Errorf("%s: %v", root, err)
	}
	return files
}

// TestControlPathHasOneEncoding: the packages that put bytes on the
// wire, under a signature or in the journal encode with internal/wire
// and nothing else. A non-test file there that imports encoding/json is
// a second encoding coming back. (internal/pki and internal/experiment
// keep it: certificate extensions and a report writer are not the
// control path.)
func TestControlPathHasOneEncoding(t *testing.T) {
	for _, pkg := range []string{"wire", "signalling", "envelope", "core", "journal", "resv", "saga", "bb", "tunnel", "group"} {
		files := nonTestImports(t, filepath.Join("internal", pkg), nil, func(path, imp string) {
			if imp == "encoding/json" {
				t.Errorf("%s imports encoding/json", path)
			}
		})
		if files == 0 {
			t.Errorf("internal/%s: no Go files found; the list above is stale", pkg)
		}
	}
}

// TestOneSignatureScheme: internal/identity owns the signature
// algorithm. A non-test file anywhere else that imports one is a second
// scheme, or a second owner of the first, coming back. (bench/ keeps
// its own P-256 loop as the unit of its machine calibration; it signs
// nothing the brokers read.)
func TestOneSignatureScheme(t *testing.T) {
	files := nonTestImports(t, ".", []string{"internal/identity", "bench"}, func(path, imp string) {
		switch imp {
		case "crypto/ecdsa", "crypto/elliptic", "crypto/ed25519", "crypto/rsa":
			t.Errorf("%s imports %s: keys and signatures go through internal/identity", path, imp)
		}
	})
	if files == 0 {
		t.Error("no Go files found")
	}
}

// TestOnePeeringAuthor: internal/bb derives everything a peering means —
// the pinned key, the inbound SLA, the certificate the forwarding path
// delegates to — from bb.Peering. A daemon or the experiment World that
// imports internal/sla is assembling SLAs by hand again.
func TestOnePeeringAuthor(t *testing.T) {
	assemblies := []string{"cmd", filepath.Join("internal", "experiment", "world.go")}
	for _, root := range assemblies {
		files := nonTestImports(t, root, nil, func(path, imp string) {
			if imp == "e2eqos/internal/sla" {
				t.Errorf("%s imports internal/sla: peerings are bb.Config.Peers, built into SLAs by bb.New", path)
			}
		})
		if files == 0 {
			t.Errorf("%s: no Go files found; the list above is stale", root)
		}
	}
}

// TestDurableStateAPIHasCallers: every exported function, method, type,
// constant and variable declared in non-test code of the packages that
// hold and journal durable state, of the GARA API over them and of the
// data planes beside them is named somewhere in the module's
// non-test code besides its own declaration. An entry point only tests
// call is a second way to reach the state that the brokers never take,
// and each record it can write is one more the journal must replay. The
// scan is by identifier, not by type: a name used for anything anywhere
// counts as a call.
func TestDurableStateAPIHasCallers(t *testing.T) {
	allowed := map[string]string{
		"journal.EncodeRecord":        "tests in six packages frame records with it",
		"bb.BB.ReleaseTunnelFlow":     "pairs with AllocateTunnelFlow, which examples/tunnel and the tunnel experiment call",
		"gara.NewCoordinator":         "the STARS reservation-coordinator baseline, kept as a baseline",
		"gara.Coordinator.ReserveFor": "the STARS reservation-coordinator baseline, kept as a baseline",
		"fake.Plane.CallCounts":       "the fake's own call-count test reads it",
	}
	fenced := map[string]bool{}
	for _, pkg := range []string{"bb", "resv", "tunnel", "saga", "journal", "gara", "dataplane/fake", "dataplane/netsimdp"} {
		fenced[filepath.Join("internal", pkg)] = true
	}
	var decls [][2]string // name, package-qualified name
	refs := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// A declared name is not a reference to itself. Methods of
		// unexported types are reached through interfaces, if at all.
		declAt := map[int]bool{}
		declare := func(id *ast.Ident, recv string) {
			declAt[fset.Position(id.Pos()).Offset] = true
			if fenced[filepath.Dir(path)] && id.IsExported() && (recv == "" || ast.IsExported(recv)) {
				qual := filepath.Base(filepath.Dir(path)) + "."
				if recv != "" {
					qual += recv + "."
				}
				decls = append(decls, [2]string{id.Name, qual + id.Name})
			}
		}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				recv := ""
				if dd.Recv != nil {
					typ := dd.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if ix, ok := typ.(*ast.IndexExpr); ok {
						typ = ix.X
					}
					recv = typ.(*ast.Ident).Name
				}
				declare(dd.Name, recv)
			case *ast.GenDecl:
				for _, spec := range dd.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name, "")
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id, "")
						}
					}
				}
			}
		}
		var s scanner.Scanner
		file := token.NewFileSet().AddFile(path, -1, len(src))
		s.Init(file, src, nil, 0)
		for pos, tok, lit := s.Scan(); tok != token.EOF; pos, tok, lit = s.Scan() {
			if tok == token.IDENT && !declAt[file.Offset(pos)] {
				refs[lit]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under the fenced packages; the list above is stale")
	}
	for _, d := range decls {
		if _, ok := allowed[d[1]]; refs[d[0]] == 0 && !ok {
			t.Errorf("%s is exported but nothing outside the tests names it: delete it, or unexport it if its package needs it", d[1])
		}
	}
}
