// Package dist provides the probability distributions used by the
// simulation substrates: peer lifetimes, library sizes, item
// popularity, and link jitter.
//
// All samplers draw from an explicit *simrng.RNG so that every use is
// attributable to a named random stream and fully reproducible.
package dist

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/simrng"
)

// Sampler produces random variates.
type Sampler interface {
	// Sample draws one variate using r.
	Sample(r *simrng.RNG) float64
	// Mean returns the distribution's theoretical mean, or NaN when it
	// is undefined or unknown in closed form.
	Mean() float64
}

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

var _ Sampler = Uniform{}

// Sample draws from the uniform distribution.
func (u Uniform) Sample(r *simrng.RNG) float64 {
	return u.Lo + (u.Hi-u.Lo)*r.Float64()
}

// Mean returns (Lo+Hi)/2.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// LogNormal is the log-normal distribution: exp(N(Mu, Sigma^2)).
type LogNormal struct {
	Mu, Sigma float64
}

var _ Sampler = LogNormal{}

// Sample draws from the log-normal distribution.
func (l LogNormal) Sample(r *simrng.RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean returns exp(Mu + Sigma^2/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Point is one (quantile, value) knot of an empirical distribution.
type Point struct {
	// Q is the cumulative probability in [0, 1].
	Q float64
	// V is the value of the inverse CDF at Q.
	V float64
}

// Empirical is a distribution defined by a piecewise-linear inverse CDF
// through a set of (quantile, value) knots. It reproduces published
// summary statistics (percentile tables) of measured distributions when
// the raw traces are unavailable.
type Empirical struct {
	points []Point
}

var _ Sampler = (*Empirical)(nil)

// NewEmpirical builds an empirical distribution from knots. The knots
// must be non-empty, sorted by increasing Q with Q in [0, 1], strictly
// increasing in Q, and non-decreasing in V. The first knot should have
// Q == 0 and the last Q == 1; otherwise the extreme knots' values are
// used for the uncovered tails.
func NewEmpirical(points []Point) (*Empirical, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("dist: empirical distribution needs at least one knot")
	}
	for i, p := range points {
		if p.Q < 0 || p.Q > 1 {
			return nil, fmt.Errorf("dist: knot %d quantile %v outside [0,1]", i, p.Q)
		}
		if i > 0 {
			if p.Q <= points[i-1].Q {
				return nil, fmt.Errorf("dist: knot quantiles not strictly increasing at %d", i)
			}
			if p.V < points[i-1].V {
				return nil, fmt.Errorf("dist: knot values decrease at %d", i)
			}
		}
	}
	cp := make([]Point, len(points))
	copy(cp, points)
	return &Empirical{points: cp}, nil
}

// MustEmpirical is NewEmpirical but panics on invalid knots. Use only
// for compile-time-constant tables.
func MustEmpirical(points []Point) *Empirical {
	e, err := NewEmpirical(points)
	if err != nil {
		panic(err)
	}
	return e
}

// Sample draws from the empirical distribution by inverting the
// piecewise-linear CDF at a uniform quantile.
func (e *Empirical) Sample(r *simrng.RNG) float64 {
	return e.Quantile(r.Float64())
}

// Quantile evaluates the inverse CDF at q, clamping q to [0, 1].
func (e *Empirical) Quantile(q float64) float64 {
	pts := e.points
	if q <= pts[0].Q {
		return pts[0].V
	}
	last := pts[len(pts)-1]
	if q >= last.Q {
		return last.V
	}
	// Find the first knot with Q >= q.
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Q >= q })
	lo, hi := pts[i-1], pts[i]
	frac := (q - lo.Q) / (hi.Q - lo.Q)
	return lo.V + frac*(hi.V-lo.V)
}

// Mean returns the mean of the piecewise-linear distribution: the
// integral of the inverse CDF over [0,1], treating the tails beyond the
// extreme knots as constant.
func (e *Empirical) Mean() float64 {
	pts := e.points
	mean := pts[0].V * pts[0].Q // constant head
	for i := 1; i < len(pts); i++ {
		lo, hi := pts[i-1], pts[i]
		mean += (hi.Q - lo.Q) * (lo.V + hi.V) / 2
	}
	mean += (1 - pts[len(pts)-1].Q) * pts[len(pts)-1].V // constant tail
	return mean
}

// Scaled wraps a Sampler, multiplying every variate by Factor. It
// implements parameters like the paper's LifespanMultiplier.
type Scaled struct {
	S      Sampler
	Factor float64
}

var _ Sampler = Scaled{}

// Sample draws from the underlying sampler and scales the result.
func (s Scaled) Sample(r *simrng.RNG) float64 { return s.Factor * s.S.Sample(r) }

// Mean returns Factor times the underlying mean.
func (s Scaled) Mean() float64 { return s.Factor * s.S.Mean() }

// Constant always returns V.
type Constant struct {
	V float64
}

var _ Sampler = Constant{}

// Sample returns V.
func (c Constant) Sample(*simrng.RNG) float64 { return c.V }

// Mean returns V.
func (c Constant) Mean() float64 { return c.V }
