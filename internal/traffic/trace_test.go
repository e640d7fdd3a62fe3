package traffic

import (
	"fmt"
	"math/rand"
	"sort"
)

// Trace-driven simulation and empirical estimation: the oracle the
// analytic model's tests compare against.

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

// EstimateBandwidth returns the empirical bandwidth requirement of a
// trace: the (1−epsilon) quantile of the window-averaged rate. A
// channel provisioned at this rate would have served all but an
// epsilon fraction of the windows without queueing beyond one window.
func EstimateBandwidth(trace []float64, window int, epsilon float64) (float64, error) {
	if window <= 0 || window > len(trace) {
		return 0, fmt.Errorf("traffic: window %d out of range for trace of %d", window, len(trace))
	}
	if epsilon < 0 || epsilon >= 1 {
		return 0, fmt.Errorf("traffic: epsilon must be in [0,1)")
	}
	var rates []float64
	var sum float64
	for i, v := range trace {
		sum += v
		if i >= window {
			sum -= trace[i-window]
		}
		if i >= window-1 {
			rates = append(rates, sum/float64(window))
		}
	}
	sort.Float64s(rates)
	idx := int(float64(len(rates)-1) * (1 - epsilon))
	return rates[idx], nil
}
