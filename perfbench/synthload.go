package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/cdcs"
)

// synthOp is one decoded pool entry, ready for the facade.
type synthOp struct {
	cg  *cdcs.ConstraintGraph
	lib *cdcs.Library
}

// decodePool decodes and validates every pool entry, the set-up work a
// caller of the facade does before its first synthesis.
func decodePool(pool []instance) ([]synthOp, error) {
	ops := make([]synthOp, len(pool))
	for i, in := range pool {
		cg, err := cdcs.DecodeConstraintGraph(in.Graph)
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		if err := cg.Validate(); err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		lib, err := cdcs.DecodeLibrary(in.Library)
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		ops[i] = synthOp{cg: cg, lib: lib}
	}
	return ops, nil
}

// runtimeSamples are the Go runtime counters read around each
// untraced twin call of a traced run; the call is the only work the
// process does meanwhile, and no Observer adds its own allocations.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() [3]uint64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var out [3]uint64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = s[i].Value.Uint64()
		}
	}
	return out
}

// runSynth drives a synth-* workload: one caller in a closed loop, each
// op one cdcs.SynthesizeContext call with Workers: 1, cycling the pool.
// The timed phase ends on the pass boundary nearest cfg.seconds.
func runSynth(cfg runConfig, pool []instance, g *gate) (*outcome, error) {
	out := newOutcome()
	host := newHostSpeed()
	var ops []synthOp
	// call runs and gates one op; only ops that pass report latency.
	call := func(i int, o *cdcs.Observer) bool {
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		defer cancel()
		_, rep, err := cdcs.SynthesizeContext(ctx, ops[i].cg, ops[i].lib, cdcs.Options{Workers: 1, Observer: o})
		if err == nil {
			err = g.check(i, rep.ResultOptimal(), rep.Degradation.Degraded(), rep.Cost)
		}
		out.record(err)
		return err == nil
	}

	// Set-up: decode and validate the pool, then one warm-up call.
	setups := make([]float64, setupReps)
	for rep := range setups {
		if err := host.slice(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if ops, err = decodePool(pool); err != nil {
			return nil, err
		}
		call(0, nil)
		setups[rep] = time.Since(t0).Seconds()
	}
	out.setup(setups)

	// A traced run calls every entry twice in a row, once traced and
	// once not, alternating which goes first, so both halves cover the
	// same entries in the same states.
	pass := len(ops)
	if cfg.trace {
		pass *= 2
	}
	var (
		rec      = newRecorder()
		acc      = newLayerAcc()
		lat      []float64 // untraced ops, ms
		latT     []float64 // traced ops, ms
		alloc    [3]uint64 // summed runtime deltas over untraced twins
		allocOps int
		refWall  time.Duration
		refCPU0  = host.cpu
		cpu0     = selfCPU()
		host0    = readCPUTimes()
		start    = time.Now()
	)
	for n, clock := 0, newPassClock(pass, start.Add(cfg.seconds)); clock.more(n); n++ {
		if !cfg.trace {
			t0 := time.Now()
			if call(n%len(ops), nil) {
				lat = append(lat, ms(time.Since(t0)))
			}
			d, err := host.maybeSlice()
			if err != nil {
				return nil, err
			}
			refWall += d
			continue
		}
		i := n / 2 % len(ops)
		if traced := n%2 == n/2%2; !traced {
			before := readRuntime()
			t0 := time.Now()
			ok := call(i, nil)
			d := time.Since(t0)
			after := readRuntime()
			if ok {
				lat = append(lat, ms(d))
				for k := range alloc {
					alloc[k] += after[k] - before[k]
				}
				allocOps++
			}
			continue
		}
		o := cdcs.NewObserver(cdcs.ObserverConfig{Tracing: true, Metrics: true})
		root := rec.open("op")
		sp := rec.open("cdcs.SynthesizeContext")
		ok := call(i, o)
		rec.close(sp, root)
		rec.close(root, nil)
		if !ok {
			continue
		}
		latT = append(latT, ms(sp.Dur))
		roots := o.Tracer().Roots()
		graft(sp, roots, pidBench, sp.Start)
		rec.add(root)
		acc.addSpans(roots)
		acc.addCounters(o.Metrics().Snapshot().CounterMap())
		acc.spanOps++
		acc.counterOps++
	}
	elapsed := time.Since(start) - refWall
	self := selfCPU() - cpu0
	hostShares(out.diag, host0, readCPUTimes(), self)
	cpu := self - (host.cpu - refCPU0)
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		out.endToEnd(lat, elapsed, cpu, rss, host, nil)
		return out, nil
	}
	out.diag["process_cpu_ms_per_op"] = ms(cpu) / float64(len(lat)+len(latT))
	out.diag["traced_ops"] = len(latT)
	out.diag["untraced_ops"] = len(lat)
	l := acc.layers()
	if allocOps > 0 {
		n := float64(allocOps)
		l["synth.alloc_kb"] = float64(alloc[0]) / 1024 / n
		l["synth.mallocs"] = float64(alloc[1]) / n
		l["synth.gc_cycles"] = float64(alloc[2]) / n
	}
	if acc.spanOps > 0 {
		l["obs.trace_spans"] = float64(acc.spans) / float64(acc.spanOps)
	}
	if len(lat) > 0 && len(latT) > 0 {
		l["obs.overhead_frac"] = percentile(latT, 50)/percentile(lat, 50) - 1
	}
	out.perLayer = l
	return out, rec.writePerfetto(cfg.tracePath())
}
