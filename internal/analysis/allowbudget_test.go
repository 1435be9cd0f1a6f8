package analysis

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// maxAllowSites is the ratchet on //simcheck:allow and
// //simcheck:allow-file directives in the main module's non-test Go
// outside internal/analysis. Every allow excuses a finding instead of
// fixing it, so the count may only go down: lower this constant when a
// change removes sites, never raise it to admit new ones.
const maxAllowSites = 57

// TestAllowSiteBudget counts the allow directives the way parseAllows
// reads them (a comment starting with the directive prefix) and fails
// when the module holds more than maxAllowSites.
func TestAllowSiteBudget(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var sites []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch {
			case rel == ".":
				return nil
			case strings.HasPrefix(d.Name(), "."), d.Name() == "testdata",
				rel == filepath.Join("internal", "analysis"):
				return filepath.SkipDir
			}
			if fileExists(filepath.Join(path, "go.mod")) {
				return filepath.SkipDir // a nested module (perfbench)
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, allowPrefix) || strings.HasPrefix(c.Text, allowFilePrefix) {
					sites = append(sites, fset.Position(c.Pos()).String())
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) > maxAllowSites {
		t.Fatalf("%d //simcheck:allow sites in non-test code outside internal/analysis, budget %d; "+
			"fix the finding instead of annotating it:\n%s",
			len(sites), maxAllowSites, strings.Join(sites, "\n"))
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
