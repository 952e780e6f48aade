package lme

// Architecture test: the algorithm cores are pure reactive automata and
// must stay runtime-agnostic — no algorithm package may import the live
// runtime (internal/livenet) or the simulator (internal/manet). The
// Transport seam and the wire codec registration (each core's wire.go)
// keep both runtimes able to move algorithm messages without the
// algorithms knowing either exists; this test pins that boundary. A
// second test keeps encoding/gob, the codecs' differential oracle, in
// test files: the codecs are the only payload encoding that ships. A
// third keeps the simulator on one engine: outside internal/sim and the
// benchmark module, no shipped file drives a sim.Scheduler. A fourth keeps
// one algorithm registry: only it constructs the algorithms' protocols.

import (
	"go/ast"
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

// TestNoSchedulerOutsideSim keeps the single-heap sim.Scheduler out of the
// shipped code: the world runs on its tile engine alone, and scripts
// schedule through World.At. Outside internal/sim and bench/ (a module of
// its own that times the bare scheduler), no non-test file may name
// sim.Scheduler or sim.NewScheduler, or call a Scheduler() accessor.
func TestNoSchedulerOutsideSim(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == filepath.Join("internal", "sim") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "sim" &&
					(n.Sel.Name == "Scheduler" || n.Sel.Name == "NewScheduler") {
					t.Errorf("%s: names sim.%s outside internal/sim", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Scheduler" && len(n.Args) == 0 {
					t.Errorf("%s: calls .Scheduler() outside internal/sim", fset.Position(n.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// registryFile is the one shipped file outside the algorithm packages that
// may construct their protocols.
var registryFile = filepath.Join("internal", "harness", "registry.go")

// TestOneAlgorithmRegistry keeps the algorithm registry the only table of
// constructors: outside it, the algorithm packages, tests and bench/, no
// shipped file may call lme1.New, lme2.New or a baseline.New* constructor.
// A second table of names beside it drifts from the first.
func TestOneAlgorithmRegistry(t *testing.T) {
	skip := map[string]bool{"bench": true}
	for _, pkg := range algorithmCorePackages {
		skip[filepath.FromSlash(pkg)] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skip[path] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == registryFile {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if ((x.Name == "lme1" || x.Name == "lme2") && sel.Sel.Name == "New") ||
				(x.Name == "baseline" && strings.HasPrefix(sel.Sel.Name, "New")) {
				t.Errorf("%s: calls %s.%s outside the algorithm registry (%s)",
					fset.Position(call.Pos()), x.Name, sel.Sel.Name, registryFile)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
