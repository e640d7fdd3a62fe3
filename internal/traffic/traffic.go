// Package traffic derives channel bandwidth requirements from traffic
// models — the step upstream of the constraint graph. The paper takes
// b(a) as given ("a certain required channel bandwidth could be
// specified in gigabyte per second"); in practice that number comes
// from characterizing the application's traffic. This package provides
// an on/off Markov fluid source (bursty traffic with exponential burst
// and idle durations) and its effective bandwidth at a target overflow
// probability for a given buffer (the standard large-deviations
// approximation). Its tests validate that requirement against a
// simulated trace.
package traffic

import (
	"fmt"
	"math"
)

// Source is an on/off Markov fluid source: it transmits at Peak while
// on; on and off periods are exponentially distributed with means
// MeanOn and MeanOff (in ticks).
type Source struct {
	// Peak is the transmission rate while on (bandwidth units).
	Peak float64
	// MeanOn and MeanOff are the mean burst and idle durations (ticks).
	MeanOn, MeanOff float64
}

// Validate checks the parameters.
func (s Source) Validate() error {
	if s.Peak <= 0 || math.IsNaN(s.Peak) {
		return fmt.Errorf("traffic: peak must be positive")
	}
	if s.MeanOn <= 0 || s.MeanOff < 0 {
		return fmt.Errorf("traffic: durations must be positive (on) and non-negative (off)")
	}
	return nil
}

// MeanRate returns the long-run average rate p·on/(on+off).
func (s Source) MeanRate() float64 {
	return s.Peak * s.MeanOn / (s.MeanOn + s.MeanOff)
}

// Utilization is the on-probability.
func (s Source) Utilization() float64 {
	return s.MeanOn / (s.MeanOn + s.MeanOff)
}

// EffectiveBandwidth returns the service rate c such that a buffer of
// size B overflows with probability ≈ ε, using the standard
// exponential-bandwidth approximation for a Markov on/off fluid source
// (Guérin–Ahmadi–Naghshineh): with α = ln(1/ε) and
// y = α·b_on·(1−ρ)·p,
//
//	c = p · ( y − B + sqrt( (y − B)² + 4·B·ρ·y ) ) / (2·y)
//
// For B → 0 the requirement approaches the peak rate; for B → ∞ it
// approaches the mean rate.
func (s Source) EffectiveBandwidth(buffer, epsilon float64) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if epsilon <= 0 || epsilon >= 1 {
		return 0, fmt.Errorf("traffic: epsilon must be in (0,1)")
	}
	if buffer <= 0 {
		return s.Peak, nil
	}
	rho := s.Utilization()
	if rho >= 1 {
		return s.Peak, nil
	}
	alpha := math.Log(1 / epsilon)
	// Standard GAN closed form with y = α·b_on·(1−ρ)·p:
	//   c = p · ( y − B + sqrt( (y − B)² + 4·B·ρ·y ) ) / (2·y)
	b := s.MeanOn // mean burst duration
	y := alpha * b * (1 - rho) * s.Peak
	x := y - buffer
	c := s.Peak * (x + math.Sqrt(x*x+4*buffer*rho*y)) / (2 * y)
	// Clamp into [mean, peak]: the approximation can stray just outside
	// at the extremes.
	if c < s.MeanRate() {
		c = s.MeanRate()
	}
	if c > s.Peak {
		c = s.Peak
	}
	return c, nil
}
