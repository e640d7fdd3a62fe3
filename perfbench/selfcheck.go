package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-check holds the
// result line to.
type benchmarkSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// selfCheck runs a few ops of every workload, traced and untraced, and
// validates each result line against BENCHMARK.json; then it proves
// the correctness gate fires: a perturbed golden cost and a daemon
// killed mid-run must both end as counted failed ops in a printed
// result, and a counter the program does not export must print as
// absent.
func selfCheck(cfg runConfig) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("self-check runs from the repository root: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("decode BENCHMARK.json: %w", err)
	}
	cfg.seed = defaultSeed
	cfg.seconds = time.Second
	cfg.poolLen = 8
	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}

	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			c := cfg
			c.workload, c.trace = w, trace
			before := len(failures)
			res, err := runForCheck(c)
			if err != nil {
				fail("%s: %v", c.name(), err)
				continue
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if err := checkSchema(res, want); err != nil {
				fail("%s: %v", c.name(), err)
			}
			if !res.Correct || res.Failed != 0 {
				fail("%s: %d of %d ops failed", c.name(), res.Failed, res.Attempted)
			}
			if trace {
				if err := checkPerfetto(c.tracePath()); err != nil {
					fail("%s: %v", c.name(), err)
				}
			}
			if len(failures) == before {
				fmt.Printf("selfcheck %s: %d ops, schema ok\n", c.name(), res.Attempted)
			}
		}
	}

	for _, w := range []string{"synth-wan", "serve-small"} {
		c := cfg
		c.workload, c.perturb = w, true
		res, err := runForCheck(c)
		switch {
		case err != nil:
			fail("%s with a perturbed golden cost: %v", w, err)
		case res.Correct || res.Failed == 0 || res.Failed == res.Attempted:
			fail("%s with a perturbed golden cost: %d of %d ops failed, correct=%v; want some but not all to fail",
				w, res.Failed, res.Attempted, res.Correct)
		default:
			fmt.Printf("selfcheck %s perturbed golden: %d of %d ops failed, as they should\n", w, res.Failed, res.Attempted)
		}
	}

	c := cfg
	c.workload, c.killAfter = "serve-small", 300*time.Millisecond
	switch res, err := runForCheck(c); {
	case err != nil:
		fail("serve-small with cdcsd killed: %v", err)
	case res.Correct || res.Failed == 0:
		fail("serve-small with cdcsd killed: %d of %d ops failed, correct=%v", res.Failed, res.Attempted, res.Correct)
	default:
		fmt.Printf("selfcheck serve-small cdcsd killed: %d of %d ops failed, as they should\n", res.Failed, res.Attempted)
	}

	acc := newLayerAcc()
	acc.spanOps, acc.counterOps = 1, 1
	acc.addCounters(map[string]int64{"synth/price/pricings": 3})
	o := newOutcome()
	o.record(nil)
	o.perLayer = acc.layers()
	if res, err := o.result(true); err != nil || res.Metrics["p2p.cache_hit_frac"].Value != absentValue || res.Metrics["place.pricings"].Value != 3 {
		fail("a missing p2p/cache counter must print as absent: %v %v", res.Metrics["p2p.cache_hit_frac"], err)
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Println("selfcheck FAIL:", f)
		}
		return fmt.Errorf("self-check failed %d checks", len(failures))
	}
	fmt.Println("selfcheck PASS")
	return nil
}

// runForCheck runs one workload and returns the result line as it
// would be printed, decoded back from JSON.
func runForCheck(cfg runConfig) (result, error) {
	out, err := runWorkload(cfg)
	if err != nil {
		return result{}, err
	}
	res, err := out.result(cfg.trace)
	if err != nil {
		return result{}, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(line, &raw); err != nil {
		return result{}, err
	}
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		return result{}, fmt.Errorf("result keys %v, want %v", keys, want)
	}
	var back result
	return back, json.Unmarshal(line, &back)
}

// checkSchema holds a result line to the metrics BENCHMARK.json lists.
func checkSchema(res result, want []specMetric) error {
	if res.Attempted < 1 {
		return errors.New("no ops attempted")
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			return fmt.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %s is %v", m.Name, got.Value)
		}
	}
	return nil
}

// checkPerfetto checks a trace file is a trace_event document with at
// least one complete event.
func checkPerfetto(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			return nil
		}
	}
	return fmt.Errorf("trace %s has no spans", path)
}
