package sim

import (
	"reflect"
	"testing"
)

// mergedFields is the exhaustive list of Metrics fields that Merge
// folds. If you add a field to Metrics, you must extend Merge AND this
// list — the reflection test below fails on any field it doesn't know,
// so a new field can't silently be dropped from merged trial/shard
// tables (the PR-1 worker pool and the PR-10 sharded engine both
// depend on Merge being lossless).
var mergedFields = map[string]bool{
	"counters": true,
	"samples":  true,
}

func TestMergeCoversEveryMetricsField(t *testing.T) {
	mt := reflect.TypeOf(Metrics{})
	for i := 0; i < mt.NumField(); i++ {
		f := mt.Field(i)
		if !mergedFields[f.Name] {
			t.Errorf("Metrics gained field %q: teach Merge to fold it, add a merge-behavior case to TestMergeFoldsAllState, then add it to mergedFields", f.Name)
		}
	}
	for name := range mergedFields {
		if _, ok := mt.FieldByName(name); !ok {
			t.Errorf("mergedFields lists %q but Metrics has no such field; prune the list", name)
		}
	}
}

// TestMergeFoldsAllState checks the merge semantics of every field in
// mergedFields: counters add, sample multisets concatenate (including
// names only one side has), and the source is left untouched.
func TestMergeFoldsAllState(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.Count("both", 2)
	b.Count("both", 3)
	b.Count("only-b", 7)
	a.Sample("lat", 1)
	b.Sample("lat", 2)
	b.Sample("lat", 3)
	b.Sample("only-b", 9)

	a.Merge(b)

	if got := a.Counter("both"); got != 5 {
		t.Errorf("merged counter both = %d, want 5", got)
	}
	if got := a.Counter("only-b"); got != 7 {
		t.Errorf("merged counter only-b = %d, want 7", got)
	}
	if got := len(a.Samples("lat")); got != 3 {
		t.Errorf("merged lat has %d samples, want 3", got)
	}
	if got := len(a.Samples("only-b")); got != 1 {
		t.Errorf("merged only-b has %d samples, want 1", got)
	}
	// The source must be untouched (Merge reads, never aliases).
	if got := b.Counter("both"); got != 3 {
		t.Errorf("source counter mutated: %d", got)
	}
	if got := len(b.Samples("lat")); got != 2 {
		t.Errorf("source samples mutated: %d", got)
	}
	// Merged samples must not alias the source's backing array.
	a.Sample("lat", 99)
	if got := len(b.Samples("lat")); got != 2 {
		t.Errorf("merge aliased source sample slice; source now has %d", got)
	}
	// A summary over merged samples sees the full multiset — the
	// min-observation interaction fixed in PR 1 must survive merging.
	s := Summarize(a.Samples("lat"))
	if s.N != 4 || s.Min != 1 {
		t.Errorf("merged summary = count %d min %v, want 4 and 1", s.N, s.Min)
	}
}
