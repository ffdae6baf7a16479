package rngstream_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/rngstream"
)

// TestFindings checks the named-stream discipline: dynamic stream
// names, sibling reseeding, and exported RNG fields are flagged
// in a deterministic package; constant names, plain seeds, unexported
// fields, and reasoned annotations pass.
func TestFindings(t *testing.T) {
	analysistest.Run(t, "testdata/src/det", "repro/internal/core", rngstream.Analyzer)
}

// TestExemptPackage checks that non-deterministic packages (the live
// node's fault injector) may derive dynamic per-link streams.
func TestExemptPackage(t *testing.T) {
	analysistest.Run(t, "testdata/src/exempt", "repro/node/memnet", rngstream.Analyzer)
}
