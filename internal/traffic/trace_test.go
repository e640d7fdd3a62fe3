package traffic

import "math/rand"

// Trace-driven simulation: the oracle the analytic model's tests
// compare against.

// Trace simulates the source for the given number of ticks and returns
// the per-tick transmitted volume.
func (s Source) Trace(r *rand.Rand, ticks int) ([]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	trace := make([]float64, ticks)
	on := r.Float64() < s.Utilization()
	remaining := s.sample(r, on)
	for t := 0; t < ticks; t++ {
		if on {
			trace[t] = s.Peak
		}
		remaining--
		for remaining <= 0 {
			on = !on
			remaining += s.sample(r, on)
		}
	}
	return trace, nil
}

func (s Source) sample(r *rand.Rand, on bool) float64 {
	mean := s.MeanOff
	if on {
		mean = s.MeanOn
	}
	if mean <= 0 {
		return 1
	}
	return r.ExpFloat64() * mean
}
