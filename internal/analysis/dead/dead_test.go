package dead_test

import (
	"testing"

	"kmgraph/internal/analysis/dead"
	"kmgraph/internal/analysis/kit"
)

func TestDead(t *testing.T) {
	kit.TestDir(t, "testdata/src", dead.Analyzer)
}
