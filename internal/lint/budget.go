package lint

// CountIgnores tallies the program's suppression surface: how many
// //rofllint:ignore directives exist per analyzer. CI diffs the output
// against a committed golden file so that growing the suppression count
// is a reviewed decision, not drift.
func CountIgnores(pkgs []*Package) map[string]int {
	counts := map[string]int{}
	for _, pkg := range pkgs {
		dirs, bad := parseDirectives(pkg.Fset, pkg.Files)
		for _, dir := range dirs {
			for name := range dir.analyzers {
				counts[name]++
			}
		}
		// Malformed directives count against the analyzer namespace too:
		// they are suppression attempts, and the budget should not shrink
		// just because one lost its reason.
		counts["malformed"] += len(bad)
		if counts["malformed"] == 0 {
			delete(counts, "malformed")
		}
	}
	return counts
}
