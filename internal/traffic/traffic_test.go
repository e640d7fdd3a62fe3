package traffic

import (
	"math"
	"math/rand"
	"testing"
)

func burstySource() Source {
	return Source{Peak: 10, MeanOn: 20, MeanOff: 60}
}

func TestValidate(t *testing.T) {
	if err := burstySource().Validate(); err != nil {
		t.Errorf("valid source rejected: %v", err)
	}
	bad := []Source{
		{Peak: 0, MeanOn: 1, MeanOff: 1},
		{Peak: 1, MeanOn: 0, MeanOff: 1},
		{Peak: 1, MeanOn: 1, MeanOff: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("source %+v should be rejected", s)
		}
	}
}

func TestMeanRateAndUtilization(t *testing.T) {
	s := burstySource()
	if got := s.Utilization(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("utilization = %v, want 0.25", got)
	}
	if got := s.MeanRate(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("mean rate = %v, want 2.5", got)
	}
}

func TestEffectiveBandwidthLimits(t *testing.T) {
	s := burstySource()
	// Tiny buffer → near peak.
	nearPeak, err := s.EffectiveBandwidth(0.01, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if nearPeak < s.Peak*0.9 {
		t.Errorf("tiny-buffer bandwidth %v should approach the peak %v", nearPeak, s.Peak)
	}
	// Huge buffer → near mean.
	nearMean, err := s.EffectiveBandwidth(1e7, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if nearMean > s.MeanRate()*1.1 {
		t.Errorf("huge-buffer bandwidth %v should approach the mean %v", nearMean, s.MeanRate())
	}
	// Zero buffer degenerates to the peak.
	peak, err := s.EffectiveBandwidth(0, 1e-6)
	if err != nil || peak != s.Peak {
		t.Errorf("zero-buffer = %v, %v; want peak", peak, err)
	}
}

func TestEffectiveBandwidthMonotone(t *testing.T) {
	s := burstySource()
	prev := math.Inf(1)
	for _, buf := range []float64{1, 10, 100, 1000, 10000} {
		c, err := s.EffectiveBandwidth(buf, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if c > prev+1e-9 {
			t.Errorf("effective bandwidth increased with buffer: %v at B=%v (prev %v)", c, buf, prev)
		}
		if c < s.MeanRate()-1e-9 || c > s.Peak+1e-9 {
			t.Errorf("bandwidth %v outside [mean, peak]", c)
		}
		prev = c
	}
	// Stricter loss needs more bandwidth.
	loose, _ := s.EffectiveBandwidth(100, 1e-2)
	strict, _ := s.EffectiveBandwidth(100, 1e-9)
	if strict < loose-1e-9 {
		t.Errorf("stricter epsilon needs less bandwidth? %v < %v", strict, loose)
	}
}

func TestEffectiveBandwidthErrors(t *testing.T) {
	s := burstySource()
	if _, err := s.EffectiveBandwidth(10, 0); err == nil {
		t.Error("epsilon 0 should fail")
	}
	if _, err := s.EffectiveBandwidth(10, 1); err == nil {
		t.Error("epsilon 1 should fail")
	}
	if _, err := (Source{}).EffectiveBandwidth(10, 0.1); err == nil {
		t.Error("invalid source should fail")
	}
}

func TestTraceStatisticsMatchModel(t *testing.T) {
	s := burstySource()
	r := rand.New(rand.NewSource(13))
	trace, err := s.Trace(r, 200000)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range trace {
		if v != 0 && v != s.Peak {
			t.Fatalf("trace value %v is neither 0 nor peak", v)
		}
		sum += v
	}
	empMean := sum / float64(len(trace))
	if math.Abs(empMean-s.MeanRate()) > 0.15*s.MeanRate() {
		t.Errorf("empirical mean %v far from model mean %v", empMean, s.MeanRate())
	}
}

// Property: the analytic effective bandwidth is a safe provisioning
// level — a channel served at that rate drops (almost) nothing in
// simulation with the corresponding buffer.
func TestEffectiveBandwidthSafeInSimulation(t *testing.T) {
	s := burstySource()
	r := rand.New(rand.NewSource(23))
	const buffer = 200.0
	const epsilon = 1e-3
	c, err := s.EffectiveBandwidth(buffer, epsilon)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := s.Trace(r, 300000)
	if err != nil {
		t.Fatal(err)
	}
	// Fluid queue served at rate c with the given buffer.
	var q, dropped, offered float64
	for _, v := range trace {
		offered += v
		q += v - c
		if q < 0 {
			q = 0
		}
		if q > buffer {
			dropped += q - buffer
			q = buffer
		}
	}
	lossRate := dropped / offered
	if lossRate > epsilon*20 { // generous slack: it is an approximation
		t.Errorf("loss rate %v too high for effective bandwidth %v (target %v)", lossRate, c, epsilon)
	}
}
