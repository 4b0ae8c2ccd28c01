package fractal

import (
	"os/exec"
	"runtime"
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
//   - No C library in a job process: on Linux neither binary links net or
//     runtime/cgo. net is the one package with cgo files either binary
//     imported (through internal/rpc, which opens its sockets through
//     syscall instead), and with it every process loaded libc, ld.so and
//     glibc's thread stacks. Sized with a CGO_ENABLED=0 build of the same
//     source, peak RSS from VmHWM, 3 runs each: the benchmark's fsm_ml_dist
//     29.3-29.7 -> 24.5-24.8 MB summed over master and two workers (master
//     10.0-10.3 -> 8.5-8.8, each worker 9.3-9.8 -> 7.9-8.1), 5-motifs
//     6.16-6.23 -> 4.81-4.94 MB, in-process FSM 11.5-12.0 -> 10.4-10.6 MB,
//     triangles on a text .el 11.75-12.0 -> 10.5-10.6 MB.
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
		if binaries[pkg] && runtime.GOOS == "linux" {
			for _, cgo := range []string{"net", "runtime/cgo"} {
				if slices.Contains(deps, cgo) {
					t.Errorf("%s links %s", pkg, cgo)
				}
			}
		}
		delete(binaries, pkg)
	}
	for pkg := range binaries {
		t.Errorf("go list did not list %s", pkg)
	}
}
