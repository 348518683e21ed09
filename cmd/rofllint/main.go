// Command rofllint runs ROFL's project-specific static-analysis suite
// over the repository: determinism of the seeded packages, circular
// (never linear) comparison of flat labels, allocation-free hot paths
// (callgraph-aware), and metric-catalog discipline.
//
// Usage:
//
//	go run ./cmd/rofllint ./...
//	go run ./cmd/rofllint -json ./...     # SARIF-lite machine output
//	go run ./cmd/rofllint -ignores ./...  # per-analyzer suppression counts
//	go run ./cmd/rofllint -h              # flags and analyzers
//
// When a DESIGN.md exists in the working directory, every
// //rofllint:metrics catalog constant is additionally cross-checked
// against its §9 metric/event namespace.
//
// Exit status is 1 if any diagnostic survives (suppressions require an
// audited //rofllint:ignore directive with a reason), 2 on load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"rofl/internal/lint"
)

func main() {
	list := flag.Bool("l", false, "list analyzers and their scopes, then exit")
	jsonOut := flag.Bool("json", false, "emit findings as SARIF-lite JSON on stdout")
	ignores := flag.Bool("ignores", false, "print per-analyzer suppression counts (the ignore budget), then exit")
	suite := lint.Suite()
	listSuite := func(w io.Writer) {
		for _, sa := range suite {
			fmt.Fprintf(w, "%-14s %s\n", sa.Analyzer.Name, sa.Analyzer.Doc)
		}
	}
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rofllint [flags] [packages]\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "analyzers:\n")
		listSuite(flag.CommandLine.Output())
	}
	flag.Parse()

	if *list {
		listSuite(os.Stdout)
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rofllint: %v\n", err)
		os.Exit(2)
	}
	prog := lint.NewProgram(pkgs)

	if *ignores {
		budget := lint.CountIgnores(prog)
		keys := make([]string, 0, len(budget))
		for k := range budget {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%s %d\n", k, budget[k])
		}
		return
	}

	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		for _, sa := range suite {
			if !sa.Applies(pkg.ImportPath) {
				continue
			}
			ds, err := lint.RunAnalyzer(sa.Analyzer, prog, pkg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rofllint: %v\n", err)
				os.Exit(2)
			}
			diags = append(diags, ds...)
		}
	}
	if design, err := os.ReadFile("DESIGN.md"); err == nil {
		diags = append(diags, lint.CrossCheckDesign(prog, design)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})

	if *jsonOut {
		if err := writeSARIF(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "rofllint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rofllint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// SARIF-lite: the subset of SARIF 2.1.0 that code-scanning consumers
// actually read — one run, one result per finding, physical locations.
type sarifLog struct {
	Version string     `json:"version"`
	Schema  string     `json:"$schema"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func writeSARIF(w *os.File, diags []lint.Diagnostic) error {
	rules := map[string]bool{}
	run := sarifRun{Tool: sarifTool{Driver: sarifDriver{Name: "rofllint"}}}
	for _, sa := range lint.Suite() {
		if !rules[sa.Analyzer.Name] {
			rules[sa.Analyzer.Name] = true
			run.Tool.Driver.Rules = append(run.Tool.Driver.Rules, sarifRule{
				ID:               sa.Analyzer.Name,
				ShortDescription: sarifText{Text: sa.Analyzer.Doc},
			})
		}
	}
	run.Results = make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		run.Results = append(run.Results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: d.Pos.Filename},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Version: "2.1.0",
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Runs:    []sarifRun{run},
	})
}
