package experiments

import "testing"

// The allocation-regression tests pin the batched acquisition path's
// headline win (PR 9): routing the Fig. 2 chain and Fig. 4 panel
// assembly through the pooled scratch arenas cut their allocation
// bills by more than half versus the pre-batching baseline (766 and
// 2102 allocs/op). The ceilings sit at the 50%-reduction acceptance
// line, with measured counts well below (≈370 and ≈748 on go1.24), so
// any change that re-introduces per-replica garbage fails here in
// plain `go test` rather than waiting for a bench diff. Counts are
// per-run and duration-independent — AllocsPerRun averages over full
// experiment executions.

func TestFig2AllocCeiling(t *testing.T) {
	if _, err := Fig2(); err != nil { // warm caches outside the count
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Fig2(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 383 {
		t.Fatalf("Fig. 2 acquisition chain allocates %.0f objects/run, want ≤ 383 (≤50%% of the PR 3 baseline's 766)", allocs)
	}
}

func TestFig4AllocCeiling(t *testing.T) {
	if _, err := Fig4(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Fig4(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("Fig. 4 panel assembly allocates %.0f objects/run, want ≤ 1000 (the PR 3 baseline was 2102)", allocs)
	}
}
