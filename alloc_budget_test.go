package kmgraph

import (
	"context"
	"runtime"
	"testing"

	"kmgraph/internal/core"
)

// allocated returns the bytes fn allocates (TotalAlloc delta; nothing else
// runs in this process meanwhile — no test in this package is parallel).
func allocated(t *testing.T, fn func() error) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestColdQueryAllocationBudget keeps a cold resident connectivity query
// within 2x the bytes of the one-shot run on the same graph and seed. The
// resident path used to allocate one dense sketch per part per phase (≈9x);
// a budget in bytes, not a benchmark, so it cannot silently come back.
func TestColdQueryAllocationBudget(t *testing.T) {
	g := GNM(2000, 6000, 5)
	oneShot := func() error {
		_, err := core.RunSource(g.Source(), Config{K: 8, Seed: 21})
		return err
	}
	cold := func() error {
		c, err := NewCluster(g, WithK(8), WithSeed(21))
		if err != nil {
			return err
		}
		if _, err := c.Connectivity(context.Background()); err != nil {
			return err
		}
		return c.Close()
	}
	allocated(t, oneShot) // warm the process-wide sketch pool for both
	allocated(t, cold)
	base, got := allocated(t, oneShot), allocated(t, cold)
	t.Logf("one-shot %.1f MB, cold resident query %.1f MB (%.2fx)", float64(base)/1e6, float64(got)/1e6, float64(got)/float64(base))
	if got > 2*base {
		t.Fatalf("cold resident query allocated %d bytes, over 2x the one-shot run's %d", got, base)
	}
}
