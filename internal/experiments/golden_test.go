package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestQuickTablesMatchGolden is the "tables unchanged" gate for
// refactors of the simulators: every registered experiment at quick
// scale, concatenated as CSV, must equal the committed output of
//
//	go run ./cmd/roflsim -all -quick -csv -workers 1
//
// byte for byte. A change that moves a figure on purpose regenerates
// testdata/quick.golden.csv with that command and explains the diff in
// EXPERIMENTS.md. Worker count is left at its default: tables do not
// depend on it (TestWorkerCountInvariance).
func TestQuickTablesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at quick scale")
	}
	want, err := os.ReadFile("testdata/quick.golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, r := range All() {
		got.WriteString(r.Run(QuickConfig()).CSV())
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from testdata/quick.golden.csv:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, golden has %d", len(gl), len(wl))
}
