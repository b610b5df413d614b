package e2eqos_test

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestChangesEntriesStayShort bounds CHANGES.md entries to 2 500 bytes
// each. An entry tells a reader who was not there what changed and
// which tests moved; the reasoning behind it belongs in DESIGN.md, the
// plans in ROADMAP.md. An entry is a line that starts "- PR <n>" and
// the indented lines under it. firstBounded is the first entry written
// under the bound: earlier ones are held to it once ROADMAP item 22
// rewrites them by topic.
func TestChangesEntriesStayShort(t *testing.T) {
	const firstBounded, maxBytes = 42, 2500
	raw, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	pr, size := 0, 0
	check := func() {
		if pr >= firstBounded && size > maxBytes {
			t.Errorf("CHANGES.md: the entry for PR %d is %d bytes, above %d", pr, size, maxBytes)
		}
	}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if !strings.HasPrefix(line, " ") && line != "\n" {
			check()
			pr, size = 0, 0
			fmt.Sscanf(line, "- PR %d", &pr)
		}
		size += len(line)
	}
	check()
}
