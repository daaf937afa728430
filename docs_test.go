package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
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
	// flagRef matches a -flag token: a dash after a space or "[" and
	// before a letter, so hyphenated words and negative numbers do not
	// match.
	flagRef = regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)
	// flagDef matches a flag definition in a command's source and
	// captures the flag's name.
	flagDef = regexp.MustCompile(`\.(?:Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)\("([^"]+)"`)
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

// TestDocsNameExistingFlags fails when a document passes a command a
// flag the command does not define, such as a removed one. A flag
// belongs to the jgre-<x> token before it on the same line, up to the
// next backtick, "|" or ";".
func TestDocsNameExistingFlags(t *testing.T) {
	for _, doc := range commandDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(b), "\n") {
			for _, loc := range toolRef.FindAllStringIndex(line, -1) {
				tool := line[loc[0]:loc[1]]
				if tool == "jgre-defender" {
					continue
				}
				args := line[loc[1]:]
				if end := strings.IndexAny(args, "`|;"); end >= 0 {
					args = args[:end]
				}
				for _, m := range flagRef.FindAllStringSubmatch(args, -1) {
					if !definedFlags(t, filepath.Join("cmd", tool))[m[1]] {
						t.Errorf("%s:%d passes %s -%s, but cmd/%s defines no such flag", doc, n+1, tool, m[1], tool)
					}
				}
			}
		}
	}
}

// definedFlags returns the names of the flags that dir's non-test Go
// sources define, as flag.Int("name", ...) or fs.Int("name", ...).
func definedFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDef.FindAllSubmatch(src, -1) {
			flags[string(m[1])] = true
		}
	}
	return flags
}

func requireDir(t *testing.T, doc, ref, dir string) {
	t.Helper()
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Errorf("%s names %s, but there is no directory %s", doc, ref, dir)
	}
}
