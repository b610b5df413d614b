package e2eqos_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteWhatExists: every `make <target>` the current docs put
// in code and every BENCH_*.json they name resolves to a Makefile
// target or a file in the repository. A command a reader copies out of
// README.md, DESIGN.md or the verify recipe must run. ROADMAP.md,
// CHANGES.md and EXPERIMENTS.md are ledgers of what was, so they may
// cite what has gone.
func TestDocsCiteWhatExists(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+):`).FindAllStringSubmatch(string(raw), -1) {
		targets[m[1]] = true
	}
	// A make command opens an inline code span, which may wrap, or
	// starts a line of a fenced block.
	spanRef := regexp.MustCompile("`make\\s+([A-Za-z0-9_.-]+)")
	blockRef := regexp.MustCompile(`^\s*make\s+([A-Za-z0-9_.-]+)`)
	benchFile := regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var cited []string
		for _, m := range spanRef.FindAllStringSubmatch(string(raw), -1) {
			cited = append(cited, m[1])
		}
		fenced := false
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			} else if m := blockRef.FindStringSubmatch(line); fenced && m != nil {
				cited = append(cited, m[1])
			}
		}
		for _, target := range cited {
			if !targets[target] {
				t.Errorf("%s cites `make %s`: the Makefile has no such target", doc, target)
			}
		}
		for _, name := range benchFile.FindAllString(string(raw), -1) {
			if _, err := os.Stat(name); err != nil {
				t.Errorf("%s names %s: %v", doc, name, err)
			}
		}
	}
}
