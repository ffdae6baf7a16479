package atomicfield_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/atomicfield"
)

// TestFindings checks that sync/atomic function calls are flagged in a
// concurrent package, while typed atomics and reasoned suppressions
// pass.
func TestFindings(t *testing.T) {
	analysistest.Run(t, "testdata/src/conc", "repro/node", atomicfield.Analyzer)
}

// TestExemptPackage checks that packages outside the concurrent set
// are not analyzed.
func TestExemptPackage(t *testing.T) {
	analysistest.Run(t, "testdata/src/exempt", "repro/internal/report", atomicfield.Analyzer)
}
