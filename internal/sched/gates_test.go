package sched

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestNoStoreAssembly: a step's partials leave it as a stream — a worker
// folds its cores' stores into frames, the master folds the frames
// (agg.Store.FoldToFrames and FoldFrames) — and the environment a step reads
// arrives on its start, rebuilt by agg.Decode. Merging stores
// (agg.MergeTree) or decoding a payload into one (Store.DecodeAndMerge) is
// the tail PR 19 removed: no non-test file of this package names either.
func TestNoStoreAssembly(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "MergeTree" || sel.Sel.Name == "DecodeAndMerge") {
				t.Errorf("%s: %s assembles a store; fold frames or use agg.Decode", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	if files == 0 {
		t.Fatal("no source files: the gate checks nothing")
	}
}
