package e2eqos_test

import (
	"go/parser"
	"go/token"
	"io/fs"
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
// a second encoding coming back. (internal/pki, internal/group and
// internal/experiment keep it: certificate extensions, an attestation
// blob and a report writer are not the control path.)
func TestControlPathHasOneEncoding(t *testing.T) {
	for _, pkg := range []string{"wire", "signalling", "envelope", "core", "journal", "resv", "saga", "bb", "tunnel"} {
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
