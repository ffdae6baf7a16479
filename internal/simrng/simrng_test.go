package simrng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of uniform draws = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(n16 uint16) bool {
		n := int(n16) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniform(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d: %d draws, want ~%v", i, c, want)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 0},
		{1, 1},
		{-0.5, 0},
		{1.5, 1},
		{0.25, 0.25},
	}
	for _, tt := range tests {
		r := New(13)
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if r.Bool(tt.p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-tt.want) > 0.01 {
			t.Errorf("Bool(%v): hit rate %v, want ~%v", tt.p, got, tt.want)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(17)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64() = %v < 0", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("mean = %v, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(19)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has len %d", n, len(p))
		}
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	// Deriving a stream must not advance the parent, and the same name
	// must always yield the same stream.
	r1 := New(99)
	s1 := r1.Stream("churn")
	v1 := r1.Uint64()

	r2 := New(99)
	v2 := r2.Uint64() // draw first, derive after
	s2 := r2.Stream("churn")

	if v1 != v2 {
		t.Fatal("deriving a stream perturbed the parent sequence")
	}
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatal("same-named streams differ")
		}
	}
}

func TestStreamNamesDiffer(t *testing.T) {
	r := New(99)
	a := r.Stream("alpha")
	b := r.Stream("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different names agreed on %d draws", same)
	}
}

// TestFloat64sMatchesFloat64 pins the block form against one-at-a-time
// draws: for every block length up to 64 (and blocks back to back) the
// same values and the same generator state afterwards, with
// NormFloat64's spare variate untouched.
func TestFloat64sMatchesFloat64(t *testing.T) {
	var block [64]float64
	a, b := New(9), New(9)
	a.NormFloat64() // park a spare in both
	b.NormFloat64()
	for n := 0; n <= len(block); n++ {
		a.Float64s(block[:n])
		for i, got := range block[:n] {
			if want := b.Float64(); got != want {
				t.Fatalf("block of %d, draw %d: %v, want %v", n, i, got, want)
			}
		}
		if *a != *b {
			t.Fatalf("after a block of %d: state %+v, want %+v", n, *a, *b)
		}
	}
	if a.NormFloat64() != b.NormFloat64() || a.Float64() != b.Float64() {
		t.Fatal("sequences diverge after the blocks")
	}
}

// unmix inverts the SplitMix64 output function, so a test can put the
// generator one step before any chosen output.
func unmix(z uint64) uint64 {
	inverse := func(a uint64) uint64 { // of an odd a modulo 2^64, by Newton's iteration
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	z ^= z>>31 ^ z>>62
	z *= inverse(0x94d049bb133111eb)
	z ^= z>>27 ^ z>>54
	z *= inverse(0xbf58476d1ce4e5b9)
	z ^= z>>30 ^ z>>60
	return z
}

// referenceUint64n is Uint64n as it was first written, with the
// rejection threshold computed on every call.
func referenceUint64n(r *RNG, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		if v := r.Uint64(); v < max {
			return v % n
		}
	}
}

// TestUint64nMatchesReference checks that skipping the threshold for
// draws below MaxUint64-n changes nothing: same value and same number
// of draws for every (state, n), including states whose next output
// sits on either side of the rejection edge.
func TestUint64nMatchesReference(t *testing.T) {
	ns := []uint64{1, 2, 3, 5, math.MaxUint64, math.MaxUint64 - 1}
	for k := uint(2); k < 64; k++ {
		ns = append(ns, 1<<k-1, 1<<k+1)
	}
	for _, n := range ns {
		edge := uint64(math.MaxUint64) - math.MaxUint64%n // first rejected draw
		outputs := []uint64{0, n - 1, n, math.MaxUint64 - n, math.MaxUint64 - n + 1,
			edge - 2, edge - 1, edge, edge + 1, math.MaxUint64 - 1, math.MaxUint64}
		for _, out := range outputs {
			a := &RNG{state: unmix(out) - golden}
			b := *a
			if got := b.Uint64(); got != out {
				t.Fatalf("unmix: forced output %d, got %d", out, got)
			}
			b = *a
			got, want := a.Uint64n(n), referenceUint64n(&b, n)
			if got != want || *a != b {
				t.Fatalf("n=%d, next output %d: got %d (state %d), want %d (state %d)",
					n, out, got, a.state, want, b.state)
			}
		}
		a, b := New(n), New(n)
		for i := 0; i < 200; i++ {
			if got, want := a.Uint64n(n), referenceUint64n(b, n); got != want {
				t.Fatalf("n=%d draw %d: got %d, want %d", n, i, got, want)
			}
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}

// BenchmarkFloat64s is one 64-draw block per iteration: the birth
// path's unit of work (content.NewLibraryInto).
func BenchmarkFloat64s(b *testing.B) {
	r := New(1)
	var block [64]float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Float64s(block[:])
	}
}
