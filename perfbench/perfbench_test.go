package main

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := tracer{on: true, spans: []span{
		{Layer: "bench", Start: 0, End: 100, Parent: -1},
		{Layer: "kernel", Start: 10, End: 40, Parent: 0},
		{Layer: "kernel", Start: 30, End: 60, Parent: 0}, // overlaps the first child
		{Layer: "rfsrv", Start: 90, End: 120, Parent: 0}, // runs past the parent
	}}
	self := tr.selfTime()
	want := map[string]sim.Time{"bench": 100 - 50 - 10, "kernel": 60, "rfsrv": 30}
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], w)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.99, 10}, {0.1, 1}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestPlanKeepsExactProportions(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		counts := map[opKind]int{}
		for _, k := range plan(rand.New(rand.NewSource(seed)), 500, nsMix) {
			counts[k]++
		}
		for _, w := range nsMix {
			if want := 500 * w.weight / 125; counts[w.kind] != want {
				t.Errorf("seed %d: kind %d ran %d times, want %d", seed, w.kind, counts[w.kind], want)
			}
		}
	}
}

// TestRepeatIsDeterministic runs one repeat of each namespace and
// kernel+ORFS workload twice, untraced and traced: every simulated
// output must agree, and no op may fail its audit.
func TestRepeatIsDeterministic(t *testing.T) {
	for _, name := range []string{"meta-storm", "file-stream-sync"} {
		a, err := runChild(name, 3, false, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b, err := runChild(name, 3, true, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if a.Print != b.Print {
			t.Errorf("%s: fingerprints differ: %s vs %s", name, a.Print, b.Print)
		}
		if len(a.Audit) > 0 || a.Failed > 0 {
			t.Errorf("%s: audit: %v, failed %d", name, a.Audit, a.Failed)
		}
	}
}
