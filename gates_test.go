package fractal

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// perEmbeddingCanon matches building an embedding's Pattern to canonicalize
// or classify it on the spot.
var perEmbeddingCanon = regexp.MustCompile(`(Canonical|CanonicalRep|Representative|Classify|PatternCanon|PatternRepOf)\((e|emb)\.Pattern\(\)\)|(e|emb)\.Pattern\(\)\.Canonical\(\)|FromEmbedding\((e|emb)\.Graph\(\)`)

// TestNoPerEmbeddingCanon: labelling is paid per class. Per-embedding code
// asks the embedding's class memo (e.Class(), Context.PatternOf/PatternRep/
// MNISupport); building the embedding's Pattern to canonicalize or classify
// it on the spot is what PR 16 removed from the applications and this
// package. No non-test file of either matches perEmbeddingCanon.
func TestNoPerEmbeddingCanon(t *testing.T) {
	for _, dir := range []string{".", "internal/apps"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
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
				if perEmbeddingCanon.MatchString(line) {
					t.Errorf("%s:%d: per-embedding canonical labelling outside the class memo: %s", name, i+1, strings.TrimSpace(line))
				}
			}
		}
		if scanned == 0 {
			t.Fatalf("no source files in %s: the gate checks nothing", dir)
		}
	}
}
