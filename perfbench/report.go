package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/cdcs"
)

// metricSpec names one reported metric and its unit; the tables below
// list what BENCHMARK.json declares, in its order, and the self-check
// holds the two to each other.
type metricSpec struct{ name, unit string }

var endToEndSpecs = []metricSpec{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

var perLayerSpecs = []metricSpec{
	{"synth.run_ms", "ms"},
	{"place.price_ms", "ms"},
	{"place.pricings", "count"},
	{"place.pricing_us", "us"},
	{"place.useful_frac", "ratio"},
	{"p2p.plans", "count"},
	{"p2p.cache_hit_frac", "ratio"},
	{"p2p.cache_entries", "count"},
	{"p2p.plan_ms", "ms"},
	{"merging.enumerate_ms", "ms"},
	{"merging.candidates", "count"},
	{"merging.sets_tested", "count"},
	{"ucp.solve_ms", "ms"},
	{"ucp.nodes", "count"},
	{"impl.materialize_ms", "ms"},
	{"synth.alloc_kb", "KiB"},
	{"synth.mallocs", "count"},
	{"synth.gc_cycles", "count"},
	{"obs.overhead_frac", "ratio"},
	{"obs.trace_spans", "count"},
	{"serve.submit_ms", "ms"},
	{"serve.events_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.job_self_ms", "ms"},
	{"serve.synth_frac", "ratio"},
	{"serve.sse_bytes", "bytes"},
	{"serve.http_requests", "count"},
	{"serve.client_cpu_ms", "ms"},
	{"durable.wal_records", "count"},
	{"durable.wal_fsyncs", "count"},
	{"durable.wal_snapshots", "count/1000op"},
}

// absentValue stands for a per-layer metric the run could not measure:
// its layer is not on this workload's path, or the program no longer
// exports the counter or span it is read from. No real value reaches
// it: obs.overhead_frac stays above -1 and every other metric is
// non-negative.
const absentValue = -1

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// maxFailureNotes bounds the failure reasons kept for diagnostics;
// every failure is still counted.
const maxFailureNotes = 8

// outcome accumulates one run's op tally, metrics and diagnostics.
type outcome struct {
	attempted int
	failed    int
	failures  []string

	// setups are the run's set-up times in seconds.
	setups []float64
	// e2e and perLayer map metric names to values; a per-layer name
	// missing from the map is absent.
	e2e      map[string]float64
	perLayer map[string]float64
	diag     map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, diag: map[string]any{}}
}

// record counts one attempted op and whether it failed.
func (o *outcome) record(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.failures) < maxFailureNotes {
			o.failures = append(o.failures, err.Error())
		}
	}
}

// setup keeps the run's repeated set-up times; setup_s is their
// median.
func (o *outcome) setup(secs []float64) {
	o.setups = secs
	o.diag["setup_s_samples"] = secs
}

// endToEnd fills the timed phase's end-to-end metrics: latency
// percentiles over the timed ops, throughput over the timed wall
// clock, the program process's CPU and peak RSS, and the median
// set-up. wall and cpu leave out the reference slices and null ops.
// Every time is divided by the host's slowdown over the run, as
// hostspeed.go explains, and on serve-small the op latencies and
// throughput by the null ops' slowdown (nullserver.go); the raw values
// go to the diagnostics.
func (o *outcome) endToEnd(lat []float64, wall, cpu time.Duration, rssMB float64, host *hostSpeed, null *nullOps) {
	n := float64(len(lat))
	raw := map[string]float64{
		"latency_p50_ms":   percentile(lat, 50),
		"latency_p90_ms":   percentile(lat, 90),
		"throughput_per_s": n / wall.Seconds(),
		"cpu_ms_per_op":    ms(cpu) / n,
		"setup_s":          percentile(o.setups, 50),
	}
	fw, fc := host.wallFactor(), host.cpuFactor()
	f50, f90, fThr := fw, fw, fw
	if null != nil {
		f50, f90, fThr = null.factors()
		o.diag["null_factors"] = []float64{f50, f90, fThr}
		o.diag["null_ops"] = len(null.lat)
	}
	o.e2e["latency_p50_ms"] = raw["latency_p50_ms"] / f50
	o.e2e["latency_p90_ms"] = raw["latency_p90_ms"] / f90
	o.e2e["throughput_per_s"] = raw["throughput_per_s"] * fThr
	o.e2e["cpu_ms_per_op"] = raw["cpu_ms_per_op"] / fc
	o.e2e["setup_s"] = raw["setup_s"] / fw
	o.e2e["rss_peak_mb"] = rssMB
	o.diag["raw"] = raw
	o.diag["host_wall_factor"] = fw
	o.diag["host_cpu_factor"] = fc
	o.diag["host_ref_slices"] = host.slices
	o.diag["host_slice_p50_ms"] = percentile(host.walls, 50)
	o.diag["host_slice_p90_ms"] = percentile(host.walls, 90)
	o.diag["latency_samples"] = len(lat)
	o.diag["timed_wall_s"] = wall.Seconds()
	// p90 has ten samples beyond it only from 100 ops on.
	o.diag["latency_p90_valid"] = len(lat) >= 100
}

// result assembles the output line: the end-to-end metrics for an
// untraced run, the per-layer metrics for a traced one.
func (o *outcome) result(trace bool) (result, error) {
	r := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	specs, values := endToEndSpecs, o.e2e
	if trace {
		specs, values = perLayerSpecs, o.perLayer
	}
	for _, s := range specs {
		v, ok := values[s.name]
		switch {
		case !ok && trace:
			v = absentValue
		case !ok:
			return r, fmt.Errorf("end-to-end metric %s not measured", s.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return r, fmt.Errorf("metric %s is %v", s.name, v)
		}
		r.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return r, nil
}

// layerAcc sums what the program reports about its layers over a
// traced run's ops: span time by span name over spanOps ops, and
// counter deltas by registry name over counterOps ops.
type layerAcc struct {
	spanOps, counterOps int
	spans               int
	spanUs              map[string]int64
	spanSeen            map[string]bool
	counters            map[string]int64
	seen                map[string]bool
}

func newLayerAcc() *layerAcc {
	return &layerAcc{
		spanUs:   map[string]int64{},
		spanSeen: map[string]bool{},
		counters: map[string]int64{},
		seen:     map[string]bool{},
	}
}

func (a *layerAcc) addSpans(roots []*cdcs.TraceSpan) {
	walk(roots, func(sp *cdcs.TraceSpan) {
		a.spans++
		a.spanUs[sp.Name] += sp.DurUs
		a.spanSeen[sp.Name] = true
		if sp.Name == "serve/job" {
			a.spanUs["serve/job#self"] += selfUs(sp)
			a.spanSeen["serve/job#self"] = true
		}
	})
}

func (a *layerAcc) addCounters(m map[string]int64) {
	for name, v := range m {
		a.counters[name] += v
		a.seen[name] = true
	}
}

// spanMs is the mean time per op in spans of the given name.
func (a *layerAcc) spanMs(name string) (float64, bool) {
	if a.spanOps == 0 || !a.spanSeen[name] {
		return 0, false
	}
	return float64(a.spanUs[name]) / 1000 / float64(a.spanOps), true
}

// perOp is the summed delta of the named counters per op; false when
// the program does not export one of them.
func (a *layerAcc) perOp(names ...string) (float64, bool) {
	if a.counterOps == 0 {
		return 0, false
	}
	sum := int64(0)
	for _, name := range names {
		if !a.seen[name] {
			return 0, false
		}
		sum += a.counters[name]
	}
	return float64(sum) / float64(a.counterOps), true
}

// layers derives the per-layer metrics both surfaces share: span time
// per op in ms, counters per op, and the ratios between them. A metric
// whose span or counter the program never reported is left out, which
// the result line prints as absent.
func (a *layerAcc) layers() map[string]float64 {
	l := map[string]float64{}
	set := func(metric string, v float64, ok bool) {
		if ok {
			l[metric] = v
		}
	}
	ratio := func(metric string, num, den float64, ok bool) {
		if ok && den > 0 {
			l[metric] = num / den
		}
	}
	for metric, span := range map[string]string{
		"synth.run_ms":         "synth/run",
		"place.price_ms":       "synth/price",
		"p2p.plan_ms":          "p2p/plan",
		"merging.enumerate_ms": "merging/enumerate",
		"ucp.solve_ms":         "synth/solve",
		"impl.materialize_ms":  "synth/materialize",
		"serve.queue_wait_ms":  "serve/queue-wait",
		"serve.job_self_ms":    "serve/job#self",
	} {
		v, ok := a.spanMs(span)
		set(metric, v, ok)
	}
	for metric, counter := range map[string]string{
		"p2p.cache_entries":   "p2p/cache/entries",
		"merging.candidates":  "merging/candidates",
		"merging.sets_tested": "merging/sets_tested",
		"ucp.nodes":           "ucp/nodes",
	} {
		v, ok := a.perOp(counter)
		set(metric, v, ok)
	}

	pricings, okP := a.perOp("synth/price/pricings")
	set("place.pricings", pricings, okP)
	priceMs, okS := a.spanMs("synth/price")
	ratio("place.pricing_us", priceMs*1000, pricings, okP && okS)
	priced, okM := a.perOp("synth/priced_mergings")
	ratio("place.useful_frac", priced, pricings, okP && okM)
	plans, okC := a.perOp("p2p/cache/hits", "p2p/cache/misses")
	set("p2p.plans", plans, okC)
	hits, _ := a.perOp("p2p/cache/hits")
	ratio("p2p.cache_hit_frac", hits, plans, okC)
	return l
}

// percentile is the p-th percentile of xs by linear interpolation
// between closest ranks (NaN for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
