package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
)

// phaseRun is what one RunPhases call returned and observed on machine 0.
type phaseRun struct {
	phases               int
	converged, cancelled bool
	lastPhase            int   // Merger.Phase on return
	selPhases            []int // Merger.Phase as each selection step saw it
	afterIdx, afterRound []int
}

// runPhases drives RunPhases on a 3-machine cluster with a synthetic
// selection step; setup may install a cancellation poll.
func runPhases(t *testing.T, first, max int, setup func(*Merger), sel func(m *Merger, i int)) phaseRun {
	t.Helper()
	g := graph.Path(12)
	cfg := Config{K: 3, Seed: 5}.WithDefaults(g.N())
	part, err := kmachine.LoadShards(g.Source(), cfg.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got phaseRun
	_, err = runOneShot(t.Context(), cfg, func(mctx *kmachine.Ctx) error {
		m := NewMerger(mctx, part.Shard(mctx.ID()), cfg)
		defer m.ReleasePools()
		if err := m.Setup(); err != nil {
			return err
		}
		if setup != nil {
			setup(m)
		}
		var run phaseRun
		run.phases, run.converged, run.cancelled = m.RunPhases(first, max,
			func(i int) {
				run.selPhases = append(run.selPhases, m.Phase)
				m.ResetStates()
				sel(m, i)
			},
			func(i, round int, _, _ uint64) {
				run.afterIdx = append(run.afterIdx, i)
				run.afterRound = append(run.afterRound, round)
			})
		run.lastPhase = m.Phase
		if mctx.ID() == 0 {
			got = run
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRunPhasesStopRule pins the one phase driver's contract: it stops on
// convergence (nothing active, nothing failed), on a jointly observed
// cancellation, or after maxPhases — and numbers phases from firstPhase.
func TestRunPhasesStopRule(t *testing.T) {
	active := func(m *Merger, _ int) { m.PhaseActive++ }

	t.Run("converged", func(t *testing.T) {
		// Active for two phases, a failure in the third, quiet in the fourth.
		r := runPhases(t, 7, 10, nil, func(m *Merger, i int) {
			switch {
			case i < 2:
				m.PhaseActive++
			case i == 2 && m.Ctx.ID() == 1:
				m.Failures++
			}
		})
		if r.phases != 4 || !r.converged || r.cancelled {
			t.Fatalf("got %d phases, converged=%v cancelled=%v; want 4, true, false", r.phases, r.converged, r.cancelled)
		}
		if want := []int{7, 8, 9, 10}; !slices.Equal(r.selPhases, want) || r.lastPhase != 10 {
			t.Fatalf("phase numbers %v (last %d), want %v", r.selPhases, r.lastPhase, want)
		}
		if want := []int{0, 1, 2, 3}; !slices.Equal(r.afterIdx, want) {
			t.Fatalf("after hook saw phases %v, want %v", r.afterIdx, want)
		}
		for i := 1; i < len(r.afterRound); i++ {
			if r.afterRound[i] <= r.afterRound[i-1] {
				t.Fatalf("after hook rounds not increasing: %v", r.afterRound)
			}
		}
	})

	t.Run("exhausted", func(t *testing.T) {
		r := runPhases(t, 3, 5, nil, active)
		if r.phases != 5 || r.converged || r.cancelled {
			t.Fatalf("got %d phases, converged=%v cancelled=%v; want 5, false, false", r.phases, r.converged, r.cancelled)
		}
		if len(r.afterIdx) != 5 || r.lastPhase != 8 {
			t.Fatalf("after hook ran %d times, last phase %d; want 5, 8", len(r.afterIdx), r.lastPhase)
		}
	})

	t.Run("floor", func(t *testing.T) {
		// A phase whose selection step sends nothing costs its exchange
		// floor alone: one collapse iteration (query, answer, the changed
		// sum) and PhaseSync's relabel exchange carrying the phase sums —
		// 4 rounds, after Setup's 2-round relay broadcast.
		r := runPhases(t, 0, 5, nil, active)
		if want := []int{6, 10, 14, 18, 22}; !slices.Equal(r.afterRound, want) {
			t.Fatalf("after hook rounds %v, want %v (4 a phase)", r.afterRound, want)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		// One machine alone observes the request, during phase 1: every
		// machine must stop together at that phase's end.
		polls := 0
		r := runPhases(t, 0, 10, func(m *Merger) {
			if m.Ctx.ID() == 2 {
				m.Cancelled = func() bool { polls++; return polls >= 2 }
			}
		}, active)
		if r.phases != 2 || r.converged || !r.cancelled {
			t.Fatalf("got %d phases, converged=%v cancelled=%v; want 2, false, true", r.phases, r.converged, r.cancelled)
		}
	})
}

// TestOnePhaseLoop fails when a host re-grows its own Borůvka loop: the
// end-of-phase collective has exactly one caller under internal/, the
// phase driver.
func TestOnePhaseLoop(t *testing.T) {
	var sites []string
	err := filepath.WalkDir("..", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, ".PhaseSync()") {
				sites = append(sites, fmt.Sprintf("%s:%d: %s", path, i+1, strings.TrimSpace(line)))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 || !strings.Contains(sites[0], "merge.go") {
		t.Fatalf("PhaseSync call sites = %q; want exactly one, in Merger.RunPhases (merge.go)", sites)
	}
}
