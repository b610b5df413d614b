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
	"reflect"
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
// a second encoding coming back.
func TestControlPathHasOneEncoding(t *testing.T) {
	for _, pkg := range []string{"wire", "signalling", "envelope", "core", "journal", "resv", "saga", "bb", "tunnel", "group", "pki", "experiment"} {
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

// TestOneDataPlaneProgrammer: internal/bb is the one programmer of a
// data plane. Non-test code outside it that installs or removes a
// flow's profile, or sets an aggregate, on anything that implements
// dataplane.DataPlane (the interface itself, *netsimdp.Plane or a
// backend yet to come) is a copy of what a broker does, and whatever
// meters that plane measures the copy instead of the broker. The match
// is by go/types object: a method of the same name on a type that is no
// data plane does not count. The broker reaches its devices only
// through the interface, so internal/bb imports neither the packet
// simulator nor its adapter, directly or not.
func TestOneDataPlaneProgrammer(t *testing.T) {
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	bbPkg := m.module + "/internal/bb"
	iface := m.pkgs[m.module+"/internal/dataplane"].Scope().Lookup("DataPlane").Type().Underlying().(*types.Interface)
	programs := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		if obj, _, _ := types.LookupFieldOrMethod(iface, false, nil, fn.Name()); obj == nil {
			return false
		}
		typ := recv.Type()
		return types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface)
	}
	inBB := 0
	for imp, files := range m.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := m.info.Uses[sel.Sel].(*types.Func)
				if !ok || !programs(fn) {
					return true
				}
				if imp == bbPkg {
					inBB++
				} else {
					t.Errorf("%s: calls %s: only internal/bb programs a data plane", m.fset.Position(sel.Pos()), fn.FullName())
				}
				return true
			})
		}
	}
	if inBB == 0 {
		t.Error("internal/bb programs no data plane: the fence matches nothing")
	}
	deps := map[string]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, q := range p.Imports() {
			if strings.HasPrefix(q.Path(), m.module+"/") && !deps[q.Path()] {
				deps[q.Path()] = true
				walk(q)
			}
		}
	}
	walk(m.pkgs[bbPkg])
	for _, banned := range []string{"internal/netsim", "internal/dataplane/netsimdp"} {
		if deps[m.module+"/"+banned] {
			t.Errorf("internal/bb imports %s: the broker reaches its devices only through dataplane.DataPlane", banned)
		}
	}
	if !deps[m.module+"/internal/dataplane"] {
		t.Error("internal/bb does not import internal/dataplane: the import list above is stale")
	}
}

// TestEveryDeclarationHasACaller: every package-level declaration and
// method under internal/, exported or not, is used somewhere in the
// module's non-test code, and every named struct field there is both
// read and set by it. An entry point only tests call is a second way
// into the code that the brokers never take; a field nothing reads is
// state kept for no one, and one only a test sets is an option the
// program never turns. The same holds for values: a value the program
// always picks the same way is a constant, so an exported field that
// only its own default sets, and a parameter every caller passes
// alike, are findings too. No review notices when one comes back. The
// match is by go/types object, not by spelling: a method is not used
// because another type's method of the same name is.
func TestEveryDeclarationHasACaller(t *testing.T) {
	allowed := map[string]string{
		"bb.BB.ReleaseTunnelFlow":                   "pairs with AllocateTunnelFlow, which examples/tunnel and the tunnel experiment call",
		"experiment.World.CrashDomain":              "the harness of the crash-point sweep, ROADMAP item 2",
		"experiment.World.RestartDomain":            "the harness of the crash-point sweep, ROADMAP item 2",
		"experiment.World.RestartDomainFromJournal": "the harness of the crash-point sweep, ROADMAP item 2",
		"signalling.StreamRecords":                  "it names Kind's wire value 0",
	}
	allowedFields := map[string]string{
		"signalling.TunnelBatchPayload.BatchID": "bench/ writes it; it goes with NewBatchID once bench sets Seq (ROADMAP 1A)",
		"topology.Link.Capacity":                "topology.Linear's capacity argument, which bench/ passes (ROADMAP 1A)",
		"policy.Policy.Name":                    "policy.MustParse's name argument, which bench/ passes (ROADMAP 1A)",
		"policysrv.Server.domain":               "policysrv.New's domain argument, which bench/ passes (ROADMAP 1A)",
		"experiment.WorldConfig.Seed":           "bench/ sets it; no world reads it (ROADMAP 1A)",
		"core.Broker.MaxRequestAge":             "arming the replay window is ROADMAP item 4's decision: the benchmark's stepped clock runs hours ahead of the user's stamps",
		"experiment.WorldConfig.WrapListener":   "the one way to the bytes a follower is handed: an in-memory send copies, so no dialer hook reaches them",
		"journal.Options.BatchInterval":         "only its default sets it: tests freeze group commit with time.Hour, the allocation gate TestFollowerAppendFrameAllocationFree among them, until ROADMAP item 9's clock replaces it",
	}
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range m.uncalledDecls() {
		if _, ok := allowed[name]; ok {
			delete(allowed, name)
			continue
		}
		t.Errorf("%s has no caller outside the tests: delete it", name)
	}
	for name := range allowed {
		t.Errorf("allowlist entry %s is used now, or gone: drop it", name)
	}
	for _, f := range m.idleFields() {
		if _, ok := allowedFields[f.name]; ok {
			delete(allowedFields, f.name)
			continue
		}
		t.Errorf("field %s: %s outside the tests", f.name, f.problem)
	}
	for name := range allowedFields {
		t.Errorf("field allowlist entry %s is read and set now, or gone: drop it", name)
	}
	for _, p := range m.constantParams() {
		t.Errorf("parameter %s: every caller passes %s; make it a constant", p.name, p.value)
	}
}

// TestCallersFenceMatchesByObject runs the fence over a fixture module:
// a method that shares its name with another type's used method is
// flagged, while a generic type's method and a sort.Interface method,
// both in use, are not; of the fixture's fields exactly the one no code
// reads, the one only a test sets and the one only its own default sets
// are flagged, each other field standing for one way of being set or
// read, or one exemption; and of its parameters exactly the one two
// callers pass alike and the one a single caller passes to its default
// are flagged, each other parameter standing for one exemption.
func TestCallersFenceMatchesByObject(t *testing.T) {
	m, err := loadModule(filepath.Join("testdata", "callers"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.uncalledDecls(), []string{"a.Other.Gen"}; !slices.Equal(got, want) {
		t.Errorf("uncalled = %v, want %v", got, want)
	}
	want := []idleField{{"a.Fields.readOnly", neverSet}, {"a.Fields.setOnly", neverRead}, {"a.Knobs.Defaulted", onlyDefault}}
	if got := m.idleFields(); !slices.Equal(got, want) {
		t.Errorf("idle fields = %v, want %v", got, want)
	}
	wantParams := []constantParam{{"a.Scale(factor)", "2"}, {"a.Window(size)", "0"}}
	if got := m.constantParams(); !slices.Equal(got, wantParams) {
		t.Errorf("constant parameters = %v, want %v", got, wantParams)
	}
}

// loadModule type-checks every non-test package of the module rooted
// at root, honouring build constraints.
func loadModule(root string) (*moduleChecker, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &moduleChecker{
		fset:     token.NewFileSet(),
		files:    map[string][]*ast.File{},
		pkgs:     map[string]*types.Package{},
		internal: map[string]bool{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		std: importer.Default(),
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			m.module = f[1]
		}
	}
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
			m.internal[imp] = true
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
	return m, nil
}

// uncalledDecls returns, sorted, the package-qualified names of the
// package-level declarations and methods under the module's internal/
// that no non-test code uses. A use inside the declaration itself, or
// as a method's receiver type, does not count. A generic method's use
// counts for its origin, and a method counts as used when its receiver
// implements an interface, in the module or the standard library, that
// declares it.
func (m *moduleChecker) uncalledDecls() []string {
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
					if m.internal[imp] && (dd.Recv != nil || dd.Name.Name != "init") {
						decls[m.info.Defs[dd.Name]] = span{dd.Pos(), dd.End()}
					}
				case *ast.GenDecl:
					if !m.internal[imp] {
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
			if m.implemented(recv.(*types.Named), obj.Name()) {
				continue
			}
			name += recv.(*types.Named).Obj().Name() + "."
		}
		out = append(out, name+obj.Name())
	}
	slices.Sort(out)
	return out
}

// implemented reports whether recv, the named type a method is declared
// on, or a pointer to it implements an interface, in the module or the
// standard library, that declares the method.
func (m *moduleChecker) implemented(recv *types.Named, method string) bool {
	if m.ifaces == nil {
		m.indexInterfaces()
	}
	if recv.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range m.ifaces[method] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// indexInterfaces indexes every interface the module can see by the
// names of its methods.
func (m *moduleChecker) indexInterfaces() {
	m.ifaces = map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		it, ok := typ.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			m.ifaces[it.Method(i).Name()] = append(m.ifaces[it.Method(i).Name()], it)
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
}

// An idleField is a struct field that the module's non-test code never
// reads, or never sets.
type idleField struct{ name, problem string }

const (
	neverRead   = "never read"
	neverSet    = "never set"
	onlyDefault = "only its default sets it"
)

// idleFields returns, sorted by name, the named fields of the structs
// declared under the module's internal/ that non-test code never reads
// or never sets. A field is set where code assigns it (`=`, `op=`,
// `++`), names it in a composite literal, keyed or positional, assigns
// through it (`x.f[i] = v`, `x.f.g = v`, `*x.f = v`), takes its address
// or calls a pointer method on it; the last two read it as well, since
// they hand it to code that may do either. Any other use reads it. No
// read is needed of a field of a struct used as a map key, whose
// fields the comparison reads, nor of one reachable from a value the
// program hands to encoding/json's encoder; neither is needed of a `_`
// field or of one with a json tag, an external format. A set inside an
// `if` whose condition reads the same field is the field's default, and
// an exported field that only its default sets is a constant spelt as a
// knob: nothing else ever turns it.
func (m *moduleChecker) idleFields() []idleField {
	read := map[*types.Var]bool{}
	set := map[*types.Var]bool{}
	defaulted := map[*types.Var]bool{}
	field := func(id *ast.Ident) *types.Var {
		if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	setAll := func(t types.Type) {
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				set[st.Field(i).Origin()] = true
			}
		}
	}
	// readAll marks read every field of every struct reachable from t.
	var readAll func(t types.Type)
	seen := map[types.Type]bool{}
	readAll = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			readAll(u.Elem())
		case *types.Slice:
			readAll(u.Elem())
		case *types.Array:
			readAll(u.Elem())
		case *types.Map:
			readAll(u.Key())
			readAll(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i).Origin()] = true
				readAll(u.Field(i).Type())
			}
		}
	}
	for _, tv := range m.info.Types {
		if mt, ok := tv.Type.Underlying().(*types.Map); ok {
			readAll(mt.Key())
		}
	}

	for _, files := range m.files {
		for _, f := range files {
			var stack []ast.Node
			// markSet records a set of v, as its default when an
			// enclosing if's condition reads v.
			markSet := func(v *types.Var) {
				for j := len(stack) - 2; j >= 0; j-- {
					if is, ok := stack[j].(*ast.IfStmt); ok && (stack[j+1] == is.Body || stack[j+1] == is.Else) && m.reads(is.Cond, v) {
						defaulted[v] = true
						return
					}
				}
				set[v] = true
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.CompositeLit:
					if len(n.Elts) > 0 {
						if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
							setAll(m.info.Types[n].Type)
						}
					}
				case *ast.CallExpr:
					if fn := staticCallee(m.info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" {
						switch fn.Name() {
						case "Marshal", "MarshalIndent", "Encode":
							readAll(m.info.Types[n.Args[0]].Type)
						}
					}
				case *ast.Ident:
					v := field(n)
					if v == nil {
						return true
					}
					parent := stack[len(stack)-2]
					if kv, ok := parent.(*ast.KeyValueExpr); ok && kv.Key == n {
						markSet(v)
						return true
					}
					// Climb the selector, index and dereference chain the
					// field heads, then ask what its top is used for.
					var cur ast.Node = parent
					for i := len(stack) - 3; i >= 0; i-- {
						switch p := stack[i].(type) {
						case *ast.ParenExpr, *ast.StarExpr:
							cur = p
							continue
						case *ast.IndexExpr:
							if p.X == cur {
								cur = p
								continue
							}
						case *ast.SelectorExpr:
							if p.X != cur {
								break
							}
							sel := m.info.Selections[p]
							if sel != nil && sel.Kind() == types.FieldVal {
								cur = p
								continue
							}
							if sel != nil && sel.Kind() == types.MethodVal {
								if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
									markSet(v)
									read[v] = true
									return true
								}
							}
						case *ast.UnaryExpr:
							if p.Op == token.AND {
								markSet(v)
								read[v] = true
								return true
							}
						case *ast.AssignStmt:
							if p.Tok != token.DEFINE && slices.Contains(p.Lhs, cur.(ast.Expr)) {
								markSet(v)
								return true
							}
						case *ast.IncDecStmt:
							markSet(v)
							return true
						case *ast.RangeStmt:
							if p.Tok == token.ASSIGN && (p.Key == cur || p.Value == cur) {
								markSet(v)
								return true
							}
						}
						break
					}
					read[v] = true
				}
				return true
			})
		}
	}

	var out []idleField
	for imp, files := range m.files {
		if !m.internal[imp] {
			continue
		}
		for _, f := range files {
			var owner string // the type or function the struct is declared in
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					owner = n.Name.Name
				case *ast.StructType:
					for _, fd := range n.Fields.List {
						if fd.Tag != nil {
							tag, _ := strconv.Unquote(fd.Tag.Value)
							if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
								continue
							}
						}
						for _, id := range fd.Names {
							v := m.info.Defs[id].(*types.Var)
							if id.Name == "_" {
								continue
							}
							name := v.Pkg().Name() + "." + owner + "." + id.Name
							switch {
							case !read[v]:
								out = append(out, idleField{name, neverRead})
							case !set[v] && !defaulted[v]:
								out = append(out, idleField{name, neverSet})
							case !set[v] && id.IsExported():
								out = append(out, idleField{name, onlyDefault})
							}
						}
					}
				}
				return true
			})
		}
	}
	slices.SortFunc(out, func(a, b idleField) int { return strings.Compare(a.name, b.name) })
	return out
}

// A constantParam is a parameter to which every non-test caller passes
// the same value.
type constantParam struct{ name, value string }

// constantParams returns, sorted by name, the parameters of the
// functions and methods declared under the module's internal/ to which
// every static non-test call passes the same constant, or nil: a value
// the program always picks the same way is a constant. A parameter
// counts when its function has two call sites or more, or when the
// function's body defaults it (an if that reads it, then assigns it),
// a default for a value no caller varies. Exempt: a function the
// program also uses as a value, whose calls cannot all be seen; a method
// an interface declares, whose signature the interface fixes; a
// variadic parameter; and a []byte passed as nil, the append idiom.
func (m *moduleChecker) constantParams() []constantParam {
	decls := map[*types.Func]*ast.FuncDecl{}
	for imp, files := range m.files {
		if !m.internal[imp] {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					decls[m.info.Defs[fd.Name].(*types.Func)] = fd
				}
			}
		}
	}
	calls := map[*types.Func][]*ast.CallExpr{}
	callees := map[*ast.Ident]bool{}
	for _, files := range m.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := staticCallee(m.info, call); fn != nil && decls[fn.Origin()] != nil {
						calls[fn.Origin()] = append(calls[fn.Origin()], call)
						switch fun := ast.Unparen(call.Fun).(type) {
						case *ast.Ident:
							callees[fun] = true
						case *ast.SelectorExpr:
							callees[fun.Sel] = true
						}
					}
				}
				return true
			})
		}
	}
	for id, obj := range m.info.Uses {
		if fn, ok := obj.(*types.Func); ok && !callees[id] {
			delete(calls, fn.Origin())
		}
	}
	bytes := types.NewSlice(types.Typ[types.Byte])

	var out []constantParam
	for fn, sites := range calls {
		fd := decls[fn]
		sig := fn.Type().(*types.Signature)
		name := fn.Pkg().Name() + "."
		if recv := sig.Recv(); recv != nil {
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			if m.implemented(rt.(*types.Named), fn.Name()) {
				continue
			}
			name += rt.(*types.Named).Obj().Name() + "."
		}
		n := sig.Params().Len()
		if sig.Variadic() {
			n--
		}
	params:
		for i := 0; i < n; i++ {
			p := sig.Params().At(i)
			if p.Name() == "" || p.Name() == "_" {
				continue
			}
			value := ""
			for _, call := range sites {
				if len(call.Args) != sig.Params().Len() && !sig.Variadic() {
					continue params // a multi-valued call
				}
				tv := m.info.Types[call.Args[i]]
				v := "nil"
				switch {
				case tv.Value != nil:
					v = tv.Value.ExactString()
				case !tv.IsNil():
					continue params
				}
				if value != "" && v != value {
					continue params
				}
				value = v
			}
			if value == "nil" && types.Identical(p.Type(), bytes) {
				continue
			}
			if len(sites) >= 2 || m.defaults(fd.Body, p) {
				out = append(out, constantParam{fmt.Sprintf("%s%s(%s)", name, fn.Name(), p.Name()), value})
			}
		}
	}
	slices.SortFunc(out, func(a, b constantParam) int { return strings.Compare(a.name, b.name) })
	return out
}

// defaults reports whether body holds an if whose condition reads v and
// whose body then assigns v.
func (m *moduleChecker) defaults(body *ast.BlockStmt, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		is, ok := n.(*ast.IfStmt)
		if !ok || found || !m.reads(is.Cond, v) {
			return !found
		}
		ast.Inspect(is.Body, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && m.info.Uses[id] == v {
						found = true
					}
				}
			}
			return !found
		})
		return !found
	})
	return found
}

// reads reports whether e uses v, a variable or a field, matched by
// object.
func (m *moduleChecker) reads(e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if u, ok := m.info.Uses[id].(*types.Var); ok && u.Origin() == v {
				found = true
			}
		}
		return !found
	})
	return found
}

// staticCallee returns the function or method a call statically
// calls, or nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// moduleChecker type-checks a module's packages from source on demand
// and imports everything else from compiled export data.
type moduleChecker struct {
	module   string
	fset     *token.FileSet
	files    map[string][]*ast.File
	pkgs     map[string]*types.Package
	internal map[string]bool // import paths under the module's internal/
	info     *types.Info
	std      types.Importer
	ifaces   map[string][]*types.Interface // by method name; see indexInterfaces
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
