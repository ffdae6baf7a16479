package dist

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simrng"
)

// sampleMean draws n variates and returns their mean.
func sampleMean(t *testing.T, s Sampler, n int) float64 {
	t.Helper()
	r := simrng.New(1234)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Sample(r)
	}
	return sum / float64(n)
}

func TestUniform(t *testing.T) {
	u := Uniform{Lo: 2, Hi: 6}
	r := simrng.New(1)
	for i := 0; i < 10000; i++ {
		v := u.Sample(r)
		if v < 2 || v >= 6 {
			t.Fatalf("Uniform sample %v outside [2,6)", v)
		}
	}
	if got := sampleMean(t, u, 100000); math.Abs(got-u.Mean()) > 0.05 {
		t.Fatalf("uniform mean %v, want ~%v", got, u.Mean())
	}
}

func TestLogNormal(t *testing.T) {
	l := LogNormal{Mu: 1, Sigma: 0.5}
	want := l.Mean()
	if got := sampleMean(t, l, 300000); math.Abs(got-want)/want > 0.02 {
		t.Fatalf("lognormal mean %v, want ~%v", got, want)
	}
}

func TestEmpiricalValidation(t *testing.T) {
	tests := []struct {
		name string
		pts  []Point
		ok   bool
	}{
		{"empty", nil, false},
		{"single", []Point{{0.5, 3}}, true},
		{"valid", []Point{{0, 1}, {0.5, 2}, {1, 10}}, true},
		{"q out of range", []Point{{-0.1, 1}}, false},
		{"q not increasing", []Point{{0.5, 1}, {0.5, 2}}, false},
		{"v decreasing", []Point{{0, 5}, {1, 1}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewEmpirical(tt.pts)
			if (err == nil) != tt.ok {
				t.Fatalf("NewEmpirical error = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestEmpiricalQuantile(t *testing.T) {
	e := MustEmpirical([]Point{{0, 0}, {0.5, 10}, {1, 20}})
	tests := []struct {
		q, want float64
	}{
		{-1, 0}, {0, 0}, {0.25, 5}, {0.5, 10}, {0.75, 15}, {1, 20}, {2, 20},
	}
	for _, tt := range tests {
		if got := e.Quantile(tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestEmpiricalSampleRangeAndMean(t *testing.T) {
	e := MustEmpirical([]Point{{0, 1}, {0.9, 10}, {1, 100}})
	r := simrng.New(77)
	for i := 0; i < 10000; i++ {
		v := e.Sample(r)
		if v < 1 || v > 100 {
			t.Fatalf("empirical sample %v outside knot range", v)
		}
	}
	if got, want := sampleMean(t, e, 300000), e.Mean(); math.Abs(got-want)/want > 0.03 {
		t.Fatalf("empirical mean %v, want ~%v", got, want)
	}
}

// TestEmpiricalMonotone: the inverse CDF must be monotone for any valid
// knot set.
func TestEmpiricalMonotone(t *testing.T) {
	e := MustEmpirical([]Point{{0, 0}, {0.2, 1}, {0.6, 1.5}, {1, 9}})
	f := func(a, b float64) bool {
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return e.Quantile(qa) <= e.Quantile(qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaled(t *testing.T) {
	s := Scaled{S: Constant{V: 4}, Factor: 0.25}
	if got := s.Sample(simrng.New(1)); got != 1 {
		t.Fatalf("scaled sample = %v, want 1", got)
	}
	if got := s.Mean(); got != 1 {
		t.Fatalf("scaled mean = %v, want 1", got)
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Fatal("NewZipf(0,...) accepted")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Fatal("negative exponent accepted")
	}
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Fatal("NaN exponent accepted")
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := MustZipf(1000, 0.8)
	sum := 0.0
	for k := 0; k < z.N(); k++ {
		sum += z.Prob(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Zipf probabilities sum to %v", sum)
	}
}

func TestZipfSkew(t *testing.T) {
	z := MustZipf(100, 1.0)
	// Rank 0 must be the most likely, and noticeably more likely than
	// rank 99.
	if z.Prob(0) <= z.Prob(99)*10 {
		t.Fatalf("Zipf insufficiently skewed: p0=%v p99=%v", z.Prob(0), z.Prob(99))
	}
	// Empirical rank frequencies should match Prob.
	r := simrng.New(9)
	const n = 200000
	count0 := 0
	for i := 0; i < n; i++ {
		if z.Rank(r) == 0 {
			count0++
		}
	}
	got := float64(count0) / n
	if math.Abs(got-z.Prob(0)) > 0.01 {
		t.Fatalf("rank-0 frequency %v, want ~%v", got, z.Prob(0))
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := MustZipf(50, 0)
	for k := 0; k < 50; k++ {
		if math.Abs(z.Prob(k)-0.02) > 1e-9 {
			t.Fatalf("Prob(%d) = %v, want 0.02", k, z.Prob(k))
		}
	}
}

func TestZipfRankInRange(t *testing.T) {
	z := MustZipf(37, 1.2)
	r := simrng.New(3)
	f := func(uint8) bool {
		k := z.Rank(r)
		return k >= 0 && k < 37
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstant(t *testing.T) {
	c := Constant{V: 7}
	if c.Sample(simrng.New(1)) != 7 || c.Mean() != 7 {
		t.Fatal("Constant distribution broken")
	}
}
