package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenIDs are the interdomain drivers whose QuickConfig tables are
// pinned byte for byte under testdata/golden. They all run the canon
// path engine and the ASGraph adjacency, so a change there that shifts
// a BFS tie-break or a policy decision shows up here as a diff.
var goldenIDs = []string{
	"fig8a", "fig8b", "fig8c", "stubfail",
	"bloompeering", "extensions", "ablation", "composite",
}

// TestGoldenInterdomainTables fails on any byte difference between a
// driver's Table.String() at QuickConfig and its committed golden file.
// A golden file is the `roflsim -fig <id> -quick` output without its
// trailing wall-clock line and blank line; regenerate one only when a
// behaviour change is intended, and say so in the change.
func TestGoldenInterdomainTables(t *testing.T) {
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r, ok := ByID(id)
			if !ok {
				t.Fatalf("no runner %q", id)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Run(QuickConfig()).String(); got != string(want) {
				t.Fatalf("%s table differs from golden:\n--- want ---\n%s--- got ---\n%s", id, want, got)
			}
		})
	}
}
