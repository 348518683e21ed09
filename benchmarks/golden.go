package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// golden.json holds, for the default seed at full size, the simulated
// statistics each workload must reproduce exactly. A change that moves
// one is changing what is simulated, not how fast; it updates the file
// from the "exact" section of out/result-<workload>.json and says why.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed  int64             `json:"seed"`
	Exact map[string]values `json:"exact"`
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares a run's exact statistics with the golden ones. It
// applies only to the seed and size the file was recorded at.
func checkGolden(r *run, g goldenFile, seed int64, scale float64) {
	if seed != g.Seed || scale != 1 {
		return
	}
	for name, want := range g.Exact[r.workload.Name] {
		if got, ok := r.exact[name]; ok && got != want {
			r.problems = append(r.problems, fmt.Sprintf("%s: %s is %v, golden.json has %v", r.workload.Name, name, got, want))
		}
	}
}
