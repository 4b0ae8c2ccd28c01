package fractal

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestImportGates holds two import rules of the module over `go list`:
//
//   - One wire format: no package imports encoding/gob outside its tests
//     (internal/wire is the codec; tests keep gob as a reference).
//   - Observability is free when off: neither cmd/fractal nor
//     cmd/fractal-worker links net/http, which (with net/http/pprof and
//     expvar behind it) was half the binary and 2.6 MB of every job's
//     resident set before main had parsed a flag. -pprof writes files
//     through runtime/pprof.
func TestImportGates(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain unavailable: %v", err)
	}
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}|{{join .Imports \" \"}}|{{join .Deps \" \"}}", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	binaries := map[string]bool{"fractal/cmd/fractal": true, "fractal/cmd/fractal-worker": true}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "|")
		if len(f) != 3 {
			t.Fatalf("go list: unexpected line %q", line)
		}
		pkg, imports, deps := f[0], strings.Fields(f[1]), strings.Fields(f[2])
		if slices.Contains(imports, "encoding/gob") {
			t.Errorf("%s imports encoding/gob outside its tests", pkg)
		}
		if binaries[pkg] && slices.Contains(deps, "net/http") {
			t.Errorf("%s links net/http", pkg)
		}
		delete(binaries, pkg)
	}
	for pkg := range binaries {
		t.Errorf("go list did not list %s", pkg)
	}
}
