package sharebackup

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// designHeading matches a numbered top-level heading of DESIGN.md.
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. `)
	// designCitation matches "DESIGN.md §N" and the sections listed after it
	// ("§10, §11", "§5 and §14", "§8/§14"), across a line break and a Go
	// comment marker.
	designCitation = regexp.MustCompile(`DESIGN\.md(?:'s)?[\s/]*(§\d+(?:(?:,\s*|\s+and\s+|/)§\d+)*)`)
	sectionNumber  = regexp.MustCompile(`§(\d+)`)
	// testName matches a backquoted test, benchmark or fuzz target, alone or
	// package-qualified, with an optional sub-test or sub-benchmark path.
	testName = regexp.MustCompile("`(?:\\w+\\.)?((?:Test|Benchmark|Fuzz)[A-Z0-9_]\\w*)(?:/[^`]*)?`")
	// testFunc matches the declaration of one in a _test.go file.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// checkoutFiles lists every file of the checkout but the git store and the
// benchmark's build and output trees.
func checkoutFiles(t *testing.T) []string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || strings.HasPrefix(d.Name(), ".bench")) {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDocsCiteDesignSections keeps section citations from outliving a
// renumbering or a merge: every "DESIGN.md §N" in a Go file (tests
// included), README.md, EXPERIMENTS.md or a SKILL.md must name a numbered
// heading DESIGN.md has. CHANGES.md and ROADMAP.md are history and
// exempt.
func TestDocsCiteDesignSections(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	files := []string{"README.md", "EXPERIMENTS.md"}
	for _, path := range checkoutFiles(t) {
		if strings.HasSuffix(path, ".go") || filepath.Base(path) == "SKILL.md" {
			files = append(files, path)
		}
	}
	cited := 0
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range designCitation.FindAllSubmatchIndex(text, -1) {
			list := text[loc[2]:loc[3]]
			line := 1 + strings.Count(string(text[:loc[2]]), "\n")
			for _, m := range sectionNumber.FindAllSubmatch(list, -1) {
				cited++
				if !sections[string(m[1])] {
					t.Errorf("%s:%d cites DESIGN.md §%s, which has no heading there", path, line, m[1])
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("found no DESIGN.md citation: the pattern no longer matches how the docs cite")
	}
	t.Logf("%d citations of %d DESIGN.md sections", cited, len(sections))
}

// TestDocsNameExistingTests keeps the docs from pointing at a test that is
// gone: every backquoted Test, Benchmark or Fuzz name in README.md,
// DESIGN.md, EXPERIMENTS.md or a SKILL.md must be declared in some _test.go
// of the checkout, benchmarks/ included.
func TestDocsNameExistingTests(t *testing.T) {
	declared := map[string]bool{}
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	for _, path := range checkoutFiles(t) {
		switch {
		case filepath.Base(path) == "SKILL.md":
			docs = append(docs, path)
		case strings.HasSuffix(path, "_test.go"):
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFunc.FindAllSubmatch(text, -1) {
				declared[string(m[1])] = true
			}
		}
	}
	named := 0
	for _, path := range docs {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range testName.FindAllSubmatchIndex(text, -1) {
			name := string(text[loc[2]:loc[3]])
			named++
			if !declared[name] {
				line := 1 + strings.Count(string(text[:loc[2]]), "\n")
				t.Errorf("%s:%d names %s, which no _test.go declares", path, line, name)
			}
		}
	}
	if named == 0 {
		t.Fatal("found no backquoted test name: the pattern no longer matches how the docs name tests")
	}
	t.Logf("%d test names against %d declared tests", named, len(declared))
}
