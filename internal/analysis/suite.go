// Package analysis assembles the kmvet suite: the five domain analyzers
// that enforce the engine's determinism, hot-path, and wire-protocol
// invariants, and dead, which keeps out code nothing calls. See each analyzer's package doc for its semantics and the
// kit package for the directive vocabulary (//km:hotpath, //km:exhaustive,
// //km:roundpure, //kmvet:ignore <reason>).
package analysis

import (
	"kmgraph/internal/analysis/ctxflow"
	"kmgraph/internal/analysis/dead"
	"kmgraph/internal/analysis/frameswitch"
	"kmgraph/internal/analysis/hotalloc"
	"kmgraph/internal/analysis/kit"
	"kmgraph/internal/analysis/maporder"
	"kmgraph/internal/analysis/roundpurity"
)

// Suite returns every kmvet analyzer in reporting order.
func Suite() []*kit.Analyzer {
	return []*kit.Analyzer{
		ctxflow.Analyzer,
		dead.Analyzer,
		frameswitch.Analyzer,
		hotalloc.Analyzer,
		maporder.Analyzer,
		roundpurity.Analyzer,
	}
}
