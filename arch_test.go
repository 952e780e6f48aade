package lme

// Architecture test: the algorithm cores are pure reactive automata and
// must stay runtime-agnostic — no algorithm package may import the live
// runtime (internal/livenet) or the simulator (internal/manet). The
// Transport seam and the wire codec registration (each core's wire.go)
// keep both runtimes able to move algorithm messages without the
// algorithms knowing either exists; this test pins that boundary. A
// second test keeps encoding/gob, the codecs' differential oracle, in
// test files: the codecs are the only payload encoding that ships.

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// algorithmCorePackages lists every package that implements or directly
// supports the paper's automata.
var algorithmCorePackages = []string{
	"internal/core",
	"internal/lme1",
	"internal/lme2",
	"internal/baseline",
	"internal/doorway",
	"internal/coloring",
}

// forbiddenRuntimeImports are the runtime layers the cores must not see.
var forbiddenRuntimeImports = []string{
	"lme/internal/livenet",
	"lme/internal/manet",
	"lme/internal/loadgen",
}

func TestAlgorithmCoresDoNotImportRuntimes(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range algorithmCorePackages {
		entries, err := os.ReadDir(pkg)
		if err != nil {
			t.Fatalf("read %s: %v", pkg, err)
		}
		for _, e := range entries {
			// Tests may drive a core through a runtime; only the shipped
			// sources are bound by the layering rule.
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			path := filepath.Join(pkg, e.Name())
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			for _, imp := range f.Imports {
				dep, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatalf("unquote import in %s: %v", path, err)
				}
				for _, bad := range forbiddenRuntimeImports {
					if dep == bad {
						t.Errorf("%s imports %s: algorithm cores must not depend on a runtime", path, dep)
					}
				}
			}
		}
	}
}

func TestGobOnlyInTests(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				t.Errorf("%s imports encoding/gob outside a test", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
