package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// pinCitation matches a claim naming the test that backs it, also
	// when a Go comment or a Markdown paragraph wraps between the two.
	pinCitation = regexp.MustCompile("pinned\\s+by(?:\\s|//|`)*(Test[A-Z0-9_]\\w*)")
	testFunc    = regexp.MustCompile(`(?m)^func (Test\w+)\(`)
)

// citedDocs are the Markdown documents that describe the current tree.
// The changelog and the planning documents are left out: they cite
// tests by the names those tests had, or will have, at other commits.
var citedDocs = map[string]bool{"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true}

// TestCitedTestsExist keeps every "pinned by" citation in the code and
// the design documents pointing at a test that exists, so a renamed or
// deleted test cannot leave a claim standing without its check.
func TestCitedTestsExist(t *testing.T) {
	defined := map[string]bool{}
	type citation struct{ file, test string }
	var cited []citation
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !citedDocs[d.Name()] {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				defined[string(m[1])] = true
			}
		}
		for _, m := range pinCitation.FindAllSubmatch(src, -1) {
			cited = append(cited, citation{path, string(m[1])})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cited) == 0 {
		t.Fatal("found no test citations; the scan is broken")
	}
	for _, c := range cited {
		if !defined[c.test] {
			t.Errorf("%s cites %s, but no func %s( exists", c.file, c.test, c.test)
		}
	}
}
