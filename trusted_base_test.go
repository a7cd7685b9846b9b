package pcc_test

import (
	"bytes"
	"go/build"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// trustedRoots are the packages a consumer's verdict rests on: code
// decoding, the logic, the LF checker, the binary format, the policies
// and the VC generator.
var trustedRoots = []string{
	"internal/alpha", "internal/logic", "internal/lf",
	"internal/pccbin", "internal/policy", "internal/vcgen",
}

// untrusted are packages the trusted base must not import: the
// producer's prover and invariant inference, the execution backends,
// the runtime around validation, and the test and benchmark harnesses.
var untrusted = []string{
	"prover", "inferinv", "machine", "telemetry", "store", "kernel", "chaos", "bench",
}

// TestTrustedBaseClosure computes the import closure of trustedRoots
// within this module and fails if an untrusted package is in it. It
// logs the closure's size: every line of its packages' non-test Go
// files (the paper's trusted base is "5 pages of C").
func TestTrustedBaseClosure(t *testing.T) {
	const module = "repro/"
	pkgs := map[string]*build.Package{}
	var visit func(dir string)
	visit = func(dir string) {
		if pkgs[dir] != nil {
			return
		}
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		pkgs[dir] = pkg
		for _, imp := range pkg.Imports {
			if strings.HasPrefix(imp, module) {
				visit(strings.TrimPrefix(imp, module))
			}
		}
	}
	for _, dir := range trustedRoots {
		visit(dir)
	}

	var dirs []string
	lines := 0
	for dir, pkg := range pkgs {
		dirs = append(dirs, dir)
		for _, name := range untrusted {
			if filepath.Base(dir) == name {
				t.Errorf("the trusted base imports %s%s", module, dir)
			}
		}
		for _, f := range pkg.GoFiles {
			src, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(src, []byte("\n"))
		}
	}
	sort.Strings(dirs)
	t.Logf("trusted base: %d non-test lines in %d packages: %s",
		lines, len(dirs), strings.Join(dirs, " "))
}
