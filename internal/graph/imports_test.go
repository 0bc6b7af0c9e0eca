package graph

import (
	"go/build"
	"testing"
)

// TestImportsOnlyStandardLibrary keeps the reference search an oracle
// that shares nothing with the engine it checks: the package's non-test
// files import the standard library and nothing else.
func TestImportsOnlyStandardLibrary(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range pkg.Imports {
		dep, err := build.Import(path, ".", build.FindOnly)
		if err != nil {
			t.Fatalf("import %q: %v", path, err)
		}
		if !dep.Goroot {
			t.Errorf("graph imports %q, which is not in the standard library", path)
		}
	}
}
