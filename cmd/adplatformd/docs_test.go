package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// cmd/<name>, with a shell brace list allowed at the end of the name
	// (cmd/treads-{validate,cost}).
	docCmdRef = regexp.MustCompile(`\bcmd/([a-z0-9-]+)(?:\{([a-z0-9,-]+)\})?`)
	// A bare treads-<name> is one of the commands; the module path
	// (…/treads-project/…) is excluded by the character before it.
	docToolRef = regexp.MustCompile(`(?:^|[^\w/.-])(treads-[a-z]+)`)
	// `make a b c` in a code span, possibly wrapped over a line break.
	docMakeSpan = regexp.MustCompile("`make((?:\\s+[a-z][a-z0-9-]*)+)")
	// make a b c at the start of a line of a fenced block.
	docMakeLine = regexp.MustCompile(`^\s*(?:\$ )?make((?:[ \t]+[a-z][a-z0-9-]*)+)`)
	// A file named without a directory whose stem starts in capitals
	// (README.md, BENCHMARK.json, EXPERIMENTS.md) is one at the repository
	// root or in docs/. <x> and {a,b} stand for any text, as * does.
	docRootFile  = regexp.MustCompile(`(?:^|[^\w/.*-])([A-Z][A-Z_]+[\w*<>{},-]*\.(?:md|json|txt))`)
	docGlobPart  = regexp.MustCompile(`<[^>]*>|\{[^}]*\}`)
	makefileRule = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
)

// verifySkillDoc is tooling notes; a checkout may omit them.
const verifySkillDoc = ".claude/skills/verify/SKILL.md"

// TestDocsNameOnlyThingsThatExist keeps a deletion from leaving dangling
// references: every command (cmd/<name> or a bare treads-<name>), every
// `make <target>` and every repository-root file named in the README, the
// contributing guide, docs/*.md, the Makefile's comments and the verify
// skill must exist. benchmark/ is not scanned.
func TestDocsNameOnlyThingsThatExist(t *testing.T) {
	root := filepath.Join("..", "..")
	sources := []string{"README.md", "CONTRIBUTING.md", "Makefile", verifySkillDoc}
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil || len(docs) == 0 {
		t.Fatalf("listing docs/*.md: %v (%d files)", err, len(docs))
	}
	for _, d := range docs {
		sources = append(sources, "docs/"+filepath.Base(d))
	}

	raw, err := readRepoFile(t, "Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makefileRule.FindAllStringSubmatch(string(raw), -1) {
		targets[m[1]] = true
	}
	exists := func(pattern string) bool {
		for _, dir := range []string{"", "docs"} {
			if hits, _ := filepath.Glob(filepath.Join(root, dir, pattern)); len(hits) > 0 {
				return true
			}
		}
		return false
	}
	isCmd := func(name string) bool {
		st, err := os.Stat(filepath.Join(root, "cmd", name))
		return err == nil && st.IsDir()
	}

	for _, src := range sources {
		raw, err := readRepoFile(t, src)
		if err != nil {
			if src == verifySkillDoc && os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		text := string(raw)
		if src == "Makefile" { // its recipes are checked by running them
			var comments []string
			for _, line := range strings.Split(text, "\n") {
				if strings.HasPrefix(line, "#") {
					comments = append(comments, line)
				}
			}
			text = strings.Join(comments, "\n")
		}

		for _, m := range docCmdRef.FindAllStringSubmatch(text, -1) {
			// No brace list splits to one empty alternative: the name itself.
			for _, alt := range strings.Split(m[2], ",") {
				if name := m[1] + alt; !isCmd(name) {
					t.Errorf("%s names cmd/%s, which does not exist", src, name)
				}
			}
		}
		for _, m := range docToolRef.FindAllStringSubmatch(text, -1) {
			if !isCmd(m[1]) {
				t.Errorf("%s names %s, but there is no cmd/%s", src, m[1], m[1])
			}
		}

		var makeArgs []string
		for _, m := range docMakeSpan.FindAllStringSubmatch(text, -1) {
			makeArgs = append(makeArgs, m[1])
		}
		fenced := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			} else if m := docMakeLine.FindStringSubmatch(line); fenced && m != nil {
				makeArgs = append(makeArgs, m[1])
			}
		}
		for _, args := range makeArgs {
			for _, target := range strings.Fields(args) {
				if !targets[target] {
					t.Errorf("%s names `make %s`, which is not a Makefile target", src, target)
				}
			}
		}

		for _, m := range docRootFile.FindAllStringSubmatch(text, -1) {
			if !exists(docGlobPart.ReplaceAllString(m[1], "*")) {
				t.Errorf("%s names %s, which is neither at the repository root nor in docs/", src, m[1])
			}
		}
	}
}
