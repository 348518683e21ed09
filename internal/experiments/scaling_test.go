package experiments

import (
	"strings"
	"testing"
)

// TestScalingShape checks the headline claims of the scaling study at
// CI size: per-host ring state is flat (O(1)) across the sweep and
// within the compact budget, stretch is sane, the cache hit rate is a
// valid ratio, and every ring passes the ring check.
func TestScalingShape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Pairs = 100
	tab := scaling(cfg)
	if len(tab.Rows) != len(cfg.ScaleSweep) {
		t.Fatalf("%d rows for %d sweep points", len(tab.Rows), len(cfg.ScaleSweep))
	}
	first := cell(t, tab, 0, 4)
	for i := range tab.Rows {
		ring := cell(t, tab, i, 4)
		if ring != first {
			t.Errorf("row %d ring_B/host %.1f != %.1f: per-host state not O(1)", i, ring, first)
		}
		if ring <= 0 || ring > 32 {
			t.Errorf("row %d ring_B/host %.1f outside (0, 32]", i, ring)
		}
		if p50 := cell(t, tab, i, 6); p50 < 1 {
			t.Errorf("row %d stretch p50 %.2f < 1", i, p50)
		}
		if hit := cell(t, tab, i, 8); hit < 0 || hit > 1 {
			t.Errorf("row %d cache hit rate %.2f outside [0,1]", i, hit)
		}
	}
	if checked := strings.Count(strings.Join(tab.Notes, "\n"), "ring checked: pointers trace sorted order"); checked != len(tab.Rows) {
		t.Errorf("%d of %d rings pass the ring check: %q", checked, len(tab.Rows), tab.Notes)
	}
}

// TestScalingShardInvariance: the Shards knob, like Workers, must be
// unobservable in the table.
func TestScalingShardInvariance(t *testing.T) {
	base := QuickConfig()
	base.Pairs = 60
	one := base
	one.Shards = 1
	eight := base
	eight.Shards = 8
	// The shard count is a table column; mask it before comparing.
	render := func(cfg Config) string {
		tab := scaling(cfg)
		for i := range tab.Rows {
			tab.Rows[i][1] = "-"
		}
		return tab.String()
	}
	if got, want := render(eight), render(one); got != want {
		t.Fatalf("table differs between Shards=1 and Shards=8:\n%s\nvs\n%s", got, want)
	}
}
