package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker. Exactly one of Run and RunModule
// is set: Run sees one package at a time; RunModule sees the whole module at
// once, for invariants that live across package boundaries (the lock-order
// graph).
type Analyzer struct {
	// Name is the check name used in diagnostics and lint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer encodes.
	Doc string
	// Run inspects one package and reports violations through the pass.
	Run func(*Pass)
	// RunModule inspects the whole module in one pass (Pass.Mod is set,
	// Pass.Pkg is nil). Cross-package facts — which locks a function
	// acquires — are gathered here.
	RunModule func(*Pass)
}

// Pass carries one (analyzer, package) unit of work — or, for module-level
// analyzers, one (analyzer, module) unit with Pkg nil and Mod set.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Mod      *Module
	Fset     *token.FileSet

	diags *[]Diagnostic
}

// Info is shorthand for the package's type information.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Column:  position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Check   string         `json:"check"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Column  int            `json:"column"`
	Message string         `json:"message"`
}

// String renders "file:line:col: message [check]".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Column, d.Message, d.Check)
}

// All returns the full analyzer set, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Lockhold, Baresleep, Goorphan, Lockorder, Creditflow, Pairwise,
	}
}

// Run executes the analyzers over every package of the module and returns
// the surviving diagnostics sorted by position. Findings on lines covered by
// a well-formed "lint:ignore <check> <reason>" directive are dropped;
// malformed directives are themselves findings (check "ignore").
func Run(mod *Module, analyzers []*Analyzer) []Diagnostic {
	diags, _ := run(mod, analyzers)
	return diags
}

// Stale runs the analyzers with suppression accounting and returns one
// diagnostic (check "stale-ignore") for every well-formed lint:ignore
// directive that suppressed nothing. A stale directive is a trap: it
// documents an exception that no longer exists, and its line is a free pass
// for the next real finding that lands there.
func Stale(mod *Module, analyzers []*Analyzer) []Diagnostic {
	_, stale := run(mod, analyzers)
	return stale
}

func run(mod *Module, analyzers []*Analyzer) (kept, stale []Diagnostic) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.RunModule != nil {
			a.RunModule(&Pass{Analyzer: a, Mod: mod, Fset: mod.Fset, diags: &diags})
		}
	}
	for _, pkg := range mod.Pkgs {
		for _, a := range analyzers {
			if a.Run != nil {
				a.Run(&Pass{Analyzer: a, Pkg: pkg, Fset: mod.Fset, diags: &diags})
			}
		}
	}
	ig, bad := collectIgnores(mod)
	diags = append(diags, bad...)
	kept = diags[:0]
	for _, d := range diags {
		if !ig.covers(d) {
			kept = append(kept, d)
		}
	}
	sortDiags(kept)
	for _, dir := range ig.directives {
		if dir.used {
			continue
		}
		stale = append(stale, Diagnostic{
			Check: "stale-ignore", Pos: dir.pos,
			File: dir.pos.Filename, Line: dir.pos.Line, Column: dir.pos.Column,
			Message: fmt.Sprintf("lint:ignore %s suppresses nothing; delete the stale directive", dir.check),
		})
	}
	sortDiags(stale)
	return kept, stale
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Check < b.Check
	})
}

// directive is one parsed, well-formed lint:ignore with usage accounting.
type directive struct {
	pos   token.Position
	check string
	used  bool
}

// ignoreSet maps (file, line, check) to the suppressing directive. A
// directive covers its own line and the line below it, so both trailing
// comments and comments-above work.
type ignoreSet struct {
	byLine     map[string]map[int]map[string]*directive
	directives []*directive
}

func (ig *ignoreSet) add(pos token.Position, check string) {
	dir := &directive{pos: pos, check: check}
	ig.directives = append(ig.directives, dir)
	lines := ig.byLine[pos.Filename]
	if lines == nil {
		lines = map[int]map[string]*directive{}
		ig.byLine[pos.Filename] = lines
	}
	for _, l := range [2]int{pos.Line, pos.Line + 1} {
		checks := lines[l]
		if checks == nil {
			checks = map[string]*directive{}
			lines[l] = checks
		}
		checks[check] = dir
	}
}

func (ig *ignoreSet) covers(d Diagnostic) bool {
	dir := ig.byLine[d.File][d.Line][d.Check]
	if dir == nil {
		return false
	}
	dir.used = true
	return true
}

// collectIgnores scans every file's comments for lint:ignore directives.
// Malformed directives (no check name, or no reason) are returned as
// diagnostics so a suppression can never silently widen.
func collectIgnores(mod *Module) (*ignoreSet, []Diagnostic) {
	ig := &ignoreSet{byLine: map[string]map[int]map[string]*directive{}}
	var bad []Diagnostic
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	seen := map[string]bool{}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimPrefix(text, "/*")
					text = strings.TrimSpace(text)
					rest, ok := strings.CutPrefix(text, "lint:ignore")
					if !ok {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					if seen[key] {
						continue // augmented + pure package views share files
					}
					seen[key] = true
					fields := strings.Fields(rest)
					switch {
					case len(fields) == 0 || !known[fields[0]]:
						bad = append(bad, Diagnostic{
							Check: "ignore", Pos: pos,
							File: pos.Filename, Line: pos.Line, Column: pos.Column,
							Message: "lint:ignore needs a known check name (one of " + checkNames() + ")",
						})
					case len(fields) < 2:
						bad = append(bad, Diagnostic{
							Check: "ignore", Pos: pos,
							File: pos.Filename, Line: pos.Line, Column: pos.Column,
							Message: fmt.Sprintf("lint:ignore %s needs a reason", fields[0]),
						})
					default:
						ig.add(pos, fields[0])
					}
				}
			}
		}
	}
	return ig, bad
}

func checkNames() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// ---- shared type-lookup helpers used by several analyzers ----

// findImport returns the named package if pkg is it or imports it
// (directly), else nil.
func findImport(pkg *types.Package, path string) *types.Package {
	if pkg.Path() == path || strings.TrimSuffix(pkg.Path(), "_test") == path {
		return pkg
	}
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return imp
		}
	}
	return nil
}

// namedObj resolves a package-scope object, nil if absent.
func namedObj(pkg *types.Package, name string) types.Object {
	if pkg == nil {
		return nil
	}
	return pkg.Scope().Lookup(name)
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (method or function), nil for builtins, conversions, and func values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isTestFile reports whether pos lies in a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// funcRecvNamed returns the named type of f's receiver, following pointers,
// or nil for plain functions.
func funcRecvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isFrom reports whether the named type is pkgPath.name.
func isFrom(n *types.Named, pkgPath, name string) bool {
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}
