package symbiosys

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoTestOnlyInternalPackages fails when an internal/... package has
// no importer outside tests: code that only its own tests (or other
// packages' tests) reach serves no command, example, experiment or
// benchmark, and should be deleted. Non-test files of the symbench
// module count as importers.
func TestNoTestOnlyInternalPackages(t *testing.T) {
	const module = "symbiosys"
	internal := map[string]bool{} // import paths with non-test files
	importers := map[string]int{} // import path → non-test importing files
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := module + "/" + dir
		if strings.HasPrefix(dir, "internal/") {
			internal[pkg] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if p != pkg && strings.HasPrefix(p, module+"/internal/") {
				importers[p]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) == 0 {
		t.Fatal("no internal packages found; run from the module root")
	}
	var orphans []string
	for pkg := range internal {
		if importers[pkg] == 0 {
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	for _, pkg := range orphans {
		t.Errorf("%s has no non-test importer", pkg)
	}
}
