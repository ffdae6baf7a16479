package stats

import (
	"math"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestGini(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
		tol  float64
	}{
		{"empty", nil, 0, 0},
		{"all zero", []float64{0, 0, 0}, 0, 0},
		{"perfectly even", []float64{5, 5, 5, 5}, 0, 1e-12},
		{"one has all (n=4)", []float64{0, 0, 0, 10}, 0.75, 1e-12},
		{"two level", []float64{1, 3}, 0.25, 1e-12},
	}
	for _, tt := range tests {
		if got := Gini(tt.in); !almost(got, tt.want, tt.tol) {
			t.Errorf("%s: Gini = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestGiniMonotoneInConcentration(t *testing.T) {
	even := []float64{10, 10, 10, 10, 10}
	skewed := []float64{1, 1, 1, 1, 46}
	if Gini(skewed) <= Gini(even) {
		t.Fatal("Gini not larger for more concentrated loads")
	}
}

func TestTopShare(t *testing.T) {
	loads := []float64{100, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	// Busiest 10% (1 of 10) carries 100/109.
	if got, want := TopShare(loads, 0.1), 100.0/109; !almost(got, want, 1e-12) {
		t.Fatalf("TopShare = %v, want %v", got, want)
	}
	if TopShare(nil, 0.5) != 0 {
		t.Fatal("empty TopShare not 0")
	}
	if TopShare([]float64{0, 0}, 0.5) != 0 {
		t.Fatal("all-zero TopShare not 0")
	}
	if got := TopShare(loads, 2); !almost(got, 1, 1e-12) {
		t.Fatalf("TopShare with fraction > 1 = %v", got)
	}
	if TopShare(loads, 0) != 0 {
		t.Fatal("zero fraction not 0")
	}
}
