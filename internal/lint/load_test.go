package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// writeModule lays out a throwaway module under a temp dir and returns its
// root. files maps relative paths to contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// loadedPackage finds a package by import path in a loaded module.
func loadedPackage(t *testing.T, mod *Module, path string) *Package {
	t.Helper()
	for _, pkg := range mod.Pkgs {
		if pkg.Path == path {
			return pkg
		}
	}
	t.Fatalf("package %s not loaded; have %d packages", path, len(mod.Pkgs))
	return nil
}

// TestLoadBuildTags checks that files ruled out by go:build lines (modern or
// legacy form) or _GOOS/_GOARCH filename suffixes never reach the type
// checker: each excluded file below redeclares a symbol from the kept file,
// so the load only succeeds if the exclusion works.
func TestLoadBuildTags(t *testing.T) {
	otherOS := "windows"
	if runtime.GOOS == "windows" {
		otherOS = "linux"
	}
	root := writeModule(t, map[string]string{
		"go.mod":                         "module tagmod\n",
		"kept.go":                        "package tagmod\n\nfunc F() int { return 1 }\n",
		"never.go":                       "//go:build never\n\npackage tagmod\n\nfunc F() int { return 2 }\n",
		"legacy.go":                      "// +build ignore\n\npackage tagmod\n\nfunc F() int { return 3 }\n",
		"os_" + otherOS + ".go":          "package tagmod\n\nfunc G() int { return 4 }\n",
		"os_" + runtime.GOOS + ".go":     "package tagmod\n\nfunc G() int { return 5 }\n",
		"os_" + otherOS + "_test.go":     "package tagmod\n\nfunc H() int { return 6 }\n",
		"tagged_" + runtime.GOOS + ".go": "//go:build never\n\npackage tagmod\n\nfunc F() int { return 7 }\n",
		"host.go":                        "//go:build " + runtime.GOOS + " && " + runtime.GOARCH + " && gc && go1.1\n\npackage tagmod\n\nfunc Host() int { return 8 }\n",
	})
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	pkg := loadedPackage(t, mod, "tagmod")
	if got := len(pkg.Files); got != 3 {
		t.Errorf("loaded %d files, want 3 (kept.go, os_%s.go, host.go)", got, runtime.GOOS)
	}
	for _, sym := range []string{"F", "G", "Host"} {
		if pkg.Types.Scope().Lookup(sym) == nil {
			t.Errorf("symbol %s missing from type-checked package", sym)
		}
	}
}

// TestLoadFilenameConstraints pins the go/build corner cases: a file whose
// whole basename is an OS name is NOT constrained, and combined
// _GOOS_GOARCH suffixes must match both legs.
func TestLoadFilenameConstraints(t *testing.T) {
	cases := []struct {
		name     string
		excluded bool
	}{
		{"linux.go", false}, // nothing before the underscore rule: unconstrained
		{"plain.go", false},
		{"tcp_windows.go", runtime.GOOS != "windows"},
		{"tcp_" + runtime.GOOS + ".go", false},
		{"asm_" + runtime.GOOS + "_" + runtime.GOARCH + ".go", false},
		{"asm_windows_arm64.go", runtime.GOOS != "windows" || runtime.GOARCH != "arm64"},
		{"f_amd64.go", runtime.GOARCH != "amd64"},
		{"helper_common.go", false},
		{"x_windows_test.go", runtime.GOOS != "windows"},
	}
	for _, c := range cases {
		if got := excludedByFilename(c.name); got != c.excluded {
			t.Errorf("excludedByFilename(%q) = %v, want %v", c.name, got, c.excluded)
		}
	}
}

// TestLoadGenerics checks that generic declarations, instantiations, and
// generic methods type-check through the loader and survive an analyzer run:
// the analyzers must tolerate type-parameterized ASTs without panicking.
func TestLoadGenerics(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module genmod\n\ngo 1.21\n",
		"gen.go": `package genmod

import "sync"

type Number interface {
	~int | ~int64 | ~float64
}

func Sum[T Number](xs []T) T {
	var total T
	for _, x := range xs {
		total += x
	}
	return total
}

type Guarded[T any] struct {
	mu  sync.Mutex
	val T
}

func (g *Guarded[T]) Get() T {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.val
}

var _ = Sum([]int{1, 2, 3})
var _ = Sum[float64]
`,
		"gen_test.go": `package genmod

import "testing"

func TestSum(t *testing.T) {
	g := &Guarded[int]{}
	if Sum([]int{g.Get()}) != 0 {
		t.Fatal("sum")
	}
}
`,
	})
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	pkg := loadedPackage(t, mod, "genmod")
	if pkg.Types.Scope().Lookup("Sum") == nil {
		t.Error("generic Sum missing from type-checked package")
	}
	// The analyzed view includes the in-package test file.
	if got := len(pkg.Files); got != 2 {
		t.Errorf("loaded %d files, want 2", got)
	}
	if diags := Run(mod, All()); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected diagnostic on generic module: %s", d.String())
		}
	}
}

// TestStaleIgnores checks the suppression accounting behind hflint's
// -stale-ignores mode: a directive that suppresses a live finding is not
// stale, one that suppresses nothing is.
func TestStaleIgnores(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module stalemod\n",
		"a.go":   "package stalemod\n",
		"a_test.go": `package stalemod

import "time"

func pause() {
	// lint:ignore baresleep the pause IS the behaviour under test
	time.Sleep(time.Millisecond)
}

// lint:ignore baresleep nothing on this line ever trips the analyzer
func quiet() {}
`,
	})
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if diags := Run(mod, All()); len(diags) != 0 {
		t.Fatalf("want clean run (live finding suppressed), got %v", diags)
	}
	stale := Stale(mod, All())
	if len(stale) != 1 {
		t.Fatalf("want exactly 1 stale directive, got %d: %v", len(stale), stale)
	}
	if stale[0].Check != "stale-ignore" || stale[0].Line != 10 {
		t.Errorf("stale diagnostic = %+v, want stale-ignore at line 10", stale[0])
	}
}

// TestLoadExportTestShim pins the go-test compilation model for external
// test packages: foo_test compiles against foo WITH foo's in-package test
// files, so an export_test.go shim is visible to it — while ordinary
// importers keep seeing the pure variant without test symbols.
func TestLoadExportTestShim(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":  "module shimmod\n",
		"code.go": "package shimmod\n\ntype T struct{ hidden int }\n",
		"export_test.go": "package shimmod\n\n" +
			"func (v T) Hidden() int { return v.hidden }\n",
		"ext_test.go": "package shimmod_test\n\nimport \"shimmod\"\n\n" +
			"var _ = shimmod.T{}.Hidden\n",
		"user/user.go": "package user\n\nimport \"shimmod\"\n\nvar V shimmod.T\n",
	})
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	ext := loadedPackage(t, mod, "shimmod_test")
	if len(ext.Files) != 1 {
		t.Errorf("external test package has %d files, want 1", len(ext.Files))
	}
	// The pure variant importers see must NOT carry the shim method.
	user := loadedPackage(t, mod, "shimmod/user")
	obj := user.Types.Imports()[0].Scope().Lookup("T")
	if obj == nil {
		t.Fatal("imported shimmod lost T")
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		t.Fatalf("T is %T, not a named type", obj.Type())
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "Hidden" {
			t.Error("pure variant leaked the export_test.go method to importers")
		}
	}
}
