package spacebooking

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// lintSite is one construct whose result could depend on map order,
// the goroutine schedule or the clock, keyed by file, enclosing function
// and kind so that unrelated edits do not move it.
type lintSite struct {
	file, fn, kind string
}

// Lint kinds.
const (
	lintMapRange = "range over a map"
	lintGo       = "go statement"
	lintRand     = "package-level math/rand call"
	lintClock    = "clock read"
)

// determinismAllowed lists every site the lint accepts, with how many
// times it occurs and why its result depends on neither order nor time.
var determinismAllowed = map[lintSite]struct {
	n   int
	why string
}{
	{"internal/grid/tiling.go", "scoreGDP", lintGo}:                           {1, "each worker writes its own chunk of weights; nothing is reduced across workers"},
	{"internal/topology/provider.go", "forEachSlot", lintGo}:                  {1, "each worker fills its own slots; nothing is reduced across workers"},
	{"internal/netstate/ledger.go", "State.CongestedLinkCount", lintMapRange}: {1, "counts cells; the count does not depend on order"},
	{"internal/netstate/ledger.go", "State.checkLedger", lintMapRange}:        {1, "collects the slot's keys, then sorts them"},
	{"internal/offline/upperbound.go", "CutUpperBound", lintMapRange}:         {1, "collects pool keys, then sorts them"},
	{"internal/netstate/flat.go", "FlatView.Search", lintClock}:               {2, "feeds only the obs search timer"},
	{"internal/netstate/txn.go", "Txn.ReservePath", lintClock}:                {1, "feeds only the obs commit timer"},
	{"internal/netstate/txn.go", "Txn.Consume", lintClock}:                    {1, "feeds only the obs commit timer"},
	{"internal/netstate/txn.go", "commitTimer", lintClock}:                    {1, "feeds only the obs commit timer"},
	{"internal/core/cear.go", "var clockBase", lintClock}:                     {1, "origin of the obs sub-phase timers"},
	{"internal/core/cear.go", "nanotime", lintClock}:                          {1, "feeds only the obs sub-phase timers"},
	{"internal/sim/engine.go", "Engine.Admit", lintClock}:                     {1, "feeds only the obs slot wall-time series"},
	{"internal/sim/engine.go", "Engine.Finish", lintClock}:                    {1, "feeds only the obs slot wall-time series"},
}

// TestDeterminismLint enforces the determinism contract — decisions are
// a function of (topology, spec, seed) — on every main-module package an
// admission run links, obs excepted (its instruments read the clock by
// design and never feed a decision). It type-checks their sources against
// the compiler's export data and fails on a range over a map, a go
// statement, a package-level math/rand call other than New or NewSource,
// and time.Now or time.Since, unless determinismAllowed lists the site.
func TestDeterminismLint(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		goTool = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	out, err := exec.Command(goTool, "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Module",
		"./internal/sim", "./internal/offline", "./internal/scenario").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Module                  *struct{ Path, Dir string }
	}
	exports := make(map[string]string)
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if p.Module != nil && p.Module.Path == "spacebooking" && p.ImportPath != "spacebooking/internal/obs" {
			pkgs = append(pkgs, p)
		}
	}
	if len(pkgs) < 10 {
		t.Fatalf("go list found %d main-module packages, want every package an admission run links", len(pkgs))
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	found := make(map[lintSite]int)
	var unexpected []string
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue), Uses: make(map[*ast.Ident]types.Object)}
		if _, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info); err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		for _, f := range files {
			file, err := filepath.Rel(p.Module.Dir, fset.Position(f.Pos()).Filename)
			if err != nil {
				t.Fatal(err)
			}
			file = filepath.ToSlash(file)
			for _, decl := range f.Decls {
				fn := enclosingName(decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					kind := lintKind(n, info)
					if kind == "" {
						return true
					}
					site := lintSite{file, fn, kind}
					found[site]++
					if found[site] > determinismAllowed[site].n {
						unexpected = append(unexpected, fmt.Sprintf("%s: %s in %s", fset.Position(n.Pos()), kind, fn))
					}
					return true
				})
			}
		}
	}
	for _, u := range unexpected {
		t.Errorf("%s: the result may depend on order or time; make it deterministic or add it to determinismAllowed with the reason it is not", u)
	}
	var stale []string
	for site, allowed := range determinismAllowed {
		if found[site] < allowed.n {
			stale = append(stale, fmt.Sprintf("%s %s: %s allowed %d times, found %d", site.file, site.fn, site.kind, allowed.n, found[site]))
		}
	}
	slices.Sort(stale)
	for _, s := range stale {
		t.Errorf("stale determinismAllowed entry: %s", s)
	}
}

// enclosingName names a top-level declaration: Recv.Method or Func for a
// function, "var name" for a package-level variable.
func enclosingName(decl ast.Decl) string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return d.Name.Name
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		return fmt.Sprint(recv) + "." + d.Name.Name
	case *ast.GenDecl:
		var names []string
		for _, spec := range d.Specs {
			if v, ok := spec.(*ast.ValueSpec); ok {
				for _, n := range v.Names {
					names = append(names, n.Name)
				}
			}
		}
		return strings.TrimSpace(d.Tok.String() + " " + strings.Join(names, ","))
	}
	return ""
}

// lintKind classifies n as one of the lint kinds, or "".
func lintKind(n ast.Node, info *types.Info) string {
	switch n := n.(type) {
	case *ast.RangeStmt:
		if t := info.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				return lintMapRange
			}
		}
	case *ast.GoStmt:
		return lintGo
	case *ast.SelectorExpr:
		fn, ok := info.Uses[n.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
			return ""
		}
		switch path, name := fn.Pkg().Path(), fn.Name(); {
		case path == "math/rand" && name != "New" && name != "NewSource":
			return lintRand
		case path == "time" && (name == "Now" || name == "Since"):
			return lintClock
		}
	}
	return ""
}
