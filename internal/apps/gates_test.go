package apps

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoPerEmbeddingClassTest: FSM decides per class. A filter that reads
// only the embedding's class goes through fractal.FilterAggClass, whose
// verdict the class memo keeps; testing the class's code against an
// aggregation once per embedding is what PR 20 removed from this package.
// (The root package's TestNoPerEmbeddingCanon guards this package's
// labelling.)
func TestNoPerEmbeddingClassTest(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	scanned := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		scanned++
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, "Contains(e.Class().Code)") {
				t.Errorf("%s:%d: a per-embedding class test: use fractal.FilterAggClass: %s", name, i+1, strings.TrimSpace(line))
			}
		}
	}
	if scanned == 0 {
		t.Fatal("no source files: the gate checks nothing")
	}
}
