package e2eqos_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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

// TestEveryDeclarationHasACaller: every package-level declaration and
// method under internal/, exported or not, is used somewhere in the
// module's non-test code. An entry point only tests call is a second
// way into the code that the brokers never take, and no review notices
// when one comes back. The match is by go/types object, not by
// spelling: a method is not used because another type's method of the
// same name is.
func TestEveryDeclarationHasACaller(t *testing.T) {
	allowed := map[string]string{
		"journal.EncodeRecord":                      "tests in six packages frame records with it",
		"bb.BB.ReleaseTunnelFlow":                   "pairs with AllocateTunnelFlow, which examples/tunnel and the tunnel experiment call",
		"gara.NewCoordinator":                       "the STARS reservation-coordinator baseline, kept as a baseline",
		"gara.Coordinator.ReserveFor":               "the STARS reservation-coordinator baseline, kept as a baseline",
		"gara.NetworkAPI.Cancel":                    "the GARA network API baseline, kept as a baseline: it undoes Reserve",
		"experiment.World.CrashDomain":              "the harness of the crash-point sweep, ROADMAP item 2",
		"experiment.World.RestartDomain":            "the harness of the crash-point sweep, ROADMAP item 2",
		"experiment.World.RestartDomainFromJournal": "the harness of the crash-point sweep, ROADMAP item 2",
		"signalling.StreamRecords":                  "it names Kind's wire value 0",
	}
	uncalled, err := uncalledDecls(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range uncalled {
		if _, ok := allowed[name]; ok {
			delete(allowed, name)
			continue
		}
		t.Errorf("%s has no caller outside the tests: delete it", name)
	}
	for name := range allowed {
		t.Errorf("allowlist entry %s is used now, or gone: drop it", name)
	}
}

// TestCallersFenceMatchesByObject runs the fence over a fixture module:
// a method that shares its name with another type's used method is
// flagged, while a generic type's method and a sort.Interface method,
// both in use, are not.
func TestCallersFenceMatchesByObject(t *testing.T) {
	got, err := uncalledDecls(filepath.Join("testdata", "callers"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.Other.Gen"}; !slices.Equal(got, want) {
		t.Errorf("uncalled = %v, want %v", got, want)
	}
}

// uncalledDecls type-checks every non-test package of the module rooted
// at root, honouring build constraints, and returns, sorted, the
// package-qualified names of the package-level declarations and methods
// under root/internal that no non-test code uses. A use inside the
// declaration itself, or as a method's receiver type, does not count. A
// generic method's use counts for its origin, and a method counts as
// used when its receiver implements an interface, in the module or the
// standard library, that declares it.
func uncalledDecls(root string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &moduleChecker{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		std:   importer.Default(),
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			m.module = f[1]
		}
	}
	internal := map[string]bool{} // import paths under root/internal
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		imp := m.module
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		m.files[imp] = append(m.files[imp], f)
		if strings.HasPrefix(imp, m.module+"/internal/") {
			internal[imp] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for imp := range m.files {
		if _, err := m.Import(imp); err != nil {
			return nil, err
		}
	}

	type span struct{ pos, end token.Pos }
	decls := map[types.Object]span{}
	receivers := map[*ast.Ident]bool{} // a method's receiver type is not a use of it
	for imp, files := range m.files {
		for _, f := range files {
			for _, dd := range f.Decls {
				switch dd := dd.(type) {
				case *ast.FuncDecl:
					if dd.Recv != nil {
						ast.Inspect(dd.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
					if internal[imp] && (dd.Recv != nil || dd.Name.Name != "init") {
						decls[m.info.Defs[dd.Name]] = span{dd.Pos(), dd.End()}
					}
				case *ast.GenDecl:
					if !internal[imp] {
						continue
					}
					for _, spec := range dd.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							decls[m.info.Defs[spec.Name]] = span{spec.Pos(), spec.End()}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if id.Name != "_" {
									decls[m.info.Defs[id]] = span{spec.Pos(), spec.End()}
								}
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range m.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if s, ok := decls[obj]; receivers[id] || ok && s.pos <= id.Pos() && id.Pos() < s.end {
			continue
		}
		used[obj] = true
	}

	// Every interface the module can see, indexed by method name.
	ifaces := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		it, ok := typ.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, tv := range m.info.Types {
		addIface(tv.Type)
	}
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range m.pkgs {
		visit(p)
	}
	// implemented reports whether recv, the named type a method is
	// declared on, or a pointer to it implements an interface that
	// declares the method.
	implemented := func(recv *types.Named, method string) bool {
		if recv.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces[method] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	var out []string
	for obj := range decls {
		if used[obj] {
			continue
		}
		name := obj.Pkg().Name() + "."
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if implemented(recv.(*types.Named), obj.Name()) {
				continue
			}
			name += recv.(*types.Named).Obj().Name() + "."
		}
		out = append(out, name+obj.Name())
	}
	slices.Sort(out)
	return out, nil
}

// moduleChecker type-checks a module's packages from source on demand
// and imports everything else from compiled export data.
type moduleChecker struct {
	module string
	fset   *token.FileSet
	files  map[string][]*ast.File
	pkgs   map[string]*types.Package
	info   *types.Info
	std    types.Importer
}

func (m *moduleChecker) Import(path string) (*types.Package, error) {
	if path != m.module && !strings.HasPrefix(path, m.module+"/") {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	files, ok := m.files[path]
	if !ok {
		return nil, fmt.Errorf("package %s: no Go files", path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}
