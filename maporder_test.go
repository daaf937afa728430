package repro

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
	"slices"
	"strings"
	"testing"
)

// mapOrderMarker starts the comment that must sit on the line above a
// range over a map in production code, followed by "sorted <reason>"
// (what the loop collects is sorted before anything reads it) or
// "free <reason>" (nothing the loop does depends on the order).
const mapOrderMarker = "//maporder:"

// TestMapRangesAreMarked holds the rule that no walk over a Go map
// builds state in the map's random order: every range over a map-typed
// expression in a non-test file of this module carries a
// //maporder:sorted or //maporder:free marker with a reason on the line
// above, and every marker sits above such a range. It type-checks each
// package against the export data `go list -export` reports, so the
// standard library is read compiled, not from source. fleetbench/ is its
// own module, which ./... leaves out.
func TestMapRangesAreMarked(t *testing.T) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-json", "./...").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath string
		Dir        string
		GoFiles    []string
		Export     string
		DepOnly    bool
	}
	exports := make(map[string]string)
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		exports[p.ImportPath] = p.Export
		if !p.DepOnly {
			pkgs = append(pkgs, p)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("go list reported no export data for %s", path)
	})
	sites := 0
	for _, p := range pkgs {
		// go test caches a pass against the files the test opened and
		// stat'ed; the directory's stat makes a new file invalidate it.
		if _, err := os.Stat(p.Dir); err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			if rel, err := filepath.Rel(wd, path); err == nil {
				path = rel
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
		if _, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		for _, f := range files {
			sites += checkMapRanges(t, fset, f, info)
		}
	}
	t.Logf("%d ranges over a map", sites)
}

// checkMapRanges reports each unmarked range over a map in f and each
// marker in f that sits above no such range, and returns how many map
// ranges f holds.
func checkMapRanges(t *testing.T, fset *token.FileSet, f *ast.File, info *types.Info) int {
	t.Helper()
	markers := make(map[int]*ast.Comment) // by line
	for _, g := range f.Comments {
		for _, c := range g.List {
			if !strings.HasPrefix(c.Text, mapOrderMarker) {
				continue
			}
			pos := fset.Position(c.Pos())
			kind, reason, _ := strings.Cut(strings.TrimPrefix(c.Text, mapOrderMarker), " ")
			if (kind != "sorted" && kind != "free") || strings.TrimSpace(reason) == "" {
				t.Errorf("%s: marker %q is neither \"sorted <reason>\" nor \"free <reason>\"", pos, c.Text)
			}
			markers[pos.Line] = c
		}
	}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		rs, ok := node.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, ok := info.TypeOf(rs.X).Underlying().(*types.Map); !ok {
			return true
		}
		n++
		pos := fset.Position(rs.Pos())
		if markers[pos.Line-1] == nil {
			t.Errorf("%s: range over a map without a %ssorted or %sfree marker on the line above", pos, mapOrderMarker, mapOrderMarker)
		}
		delete(markers, pos.Line-1)
		return true
	})
	stale := make([]int, 0, len(markers))
	for line := range markers {
		stale = append(stale, line)
	}
	slices.Sort(stale)
	for _, line := range stale {
		t.Errorf("%s: %s marker above no range over a map", fset.Position(markers[line].Pos()), mapOrderMarker)
	}
	return n
}
