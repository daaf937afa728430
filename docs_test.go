package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// commandDocs are the documents that tell a reader what to run.
// CHANGES.md and ROADMAP.md are history and plans, so they may name
// tools that no longer exist.
var commandDocs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
	"results/run_all.sh",
}

var (
	// dirRef matches cmd/<x> and examples/<x> paths, with or without a
	// leading "./".
	dirRef = regexp.MustCompile(`\b(cmd|examples)/([A-Za-z0-9_-]+)`)
	// toolRef matches a bare jgre-<x> token, which names cmd/jgre-<x>.
	toolRef = regexp.MustCompile(`\bjgre-[a-z0-9]+(?:-[a-z0-9]+)*`)
)

// TestDocsNameExistingCommands fails when a document points at a
// command or an example that is not in the tree, such as a removed
// binary. jgre-defender is the defender's kill reason, not a command.
func TestDocsNameExistingCommands(t *testing.T) {
	for _, doc := range commandDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range dirRef.FindAllStringSubmatch(string(b), -1) {
			requireDir(t, doc, m[0], filepath.Join(m[1], m[2]))
		}
		for _, tok := range toolRef.FindAllString(string(b), -1) {
			if tok != "jgre-defender" {
				requireDir(t, doc, tok, filepath.Join("cmd", tok))
			}
		}
	}
}

func requireDir(t *testing.T, doc, ref, dir string) {
	t.Helper()
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Errorf("%s names %s, but there is no directory %s", doc, ref, dir)
	}
}
