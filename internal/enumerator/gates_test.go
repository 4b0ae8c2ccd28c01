package enumerator

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNoSharedLevels: enumerator stacks are private to the core that runs
// the DFS loop — no lock, no pool, no level snapshot. A sync import or a
// copied level slice in a non-test file of this package is the
// shared-memory stealing PR 17 removed.
func TestNoSharedLevels(t *testing.T) {
	shared := regexp.MustCompile(`"sync(/atomic)?"|append\(\[\]\*Enumerator\(nil\)`)
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
			if shared.MatchString(line) {
				t.Errorf("%s:%d: the enumerator synchronizes or snapshots its levels again: %s", name, i+1, strings.TrimSpace(line))
			}
		}
	}
	if scanned == 0 {
		t.Fatal("no source files: the gate checks nothing")
	}
}
