package cdcs

import (
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// buildSystem constructs the quickstart-style system through the facade
// only, proving the public API is self-sufficient.
func buildSystem(t *testing.T) (*ConstraintGraph, *Library) {
	t.Helper()
	cg := NewConstraintGraph(Euclidean)
	var ports []PortID
	for i, pos := range []Point{Pt(0, 0), Pt(0, 0), Pt(80, 2), Pt(82, -2)} {
		ports = append(ports, cg.MustAddPort(Port{
			Name: "p" + string(rune('0'+i)), Position: pos,
		}))
	}
	cg.MustAddChannel(Channel{Name: "c1", From: ports[0], To: ports[2], Bandwidth: 8})
	cg.MustAddChannel(Channel{Name: "c2", From: ports[1], To: ports[3], Bandwidth: 8})
	lib := &Library{
		Links: []Link{
			{Name: "radio", Bandwidth: 10, MaxSpan: math.Inf(1), CostPerLength: 2},
			{Name: "fiber", Bandwidth: 1000, MaxSpan: math.Inf(1), CostPerLength: 3},
		},
		Nodes: []Node{
			{Name: "mux", Kind: Mux}, {Name: "demux", Kind: Demux},
		},
	}
	return cg, lib
}

func TestFacadeSynthesize(t *testing.T) {
	cg, lib := buildSystem(t)
	ig, rep, err := Synthesize(cg, lib, Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if err := Verify(ig); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if rep.Cost > rep.P2PCost {
		t.Errorf("cost %v exceeds baseline %v", rep.Cost, rep.P2PCost)
	}
	// The two parallel channels should merge onto a fiber trunk
	// (16 Mbps > 10 Mbps radio; fiber $3 trunk beats 2×$2 radios).
	foundMerge := false
	for _, c := range rep.SelectedCandidates() {
		if c.Kind == "merge" {
			foundMerge = true
		}
	}
	if !foundMerge {
		t.Error("expected the parallel channels to merge")
	}
}

func TestFacadeOptionVariants(t *testing.T) {
	cg, lib := buildSystem(t)
	_, exact, err := Synthesize(cg, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{Greedy: true},
		{Workers: 1},
		{Workers: 4},
	} {
		_, rep, err := Synthesize(cg, lib, opt)
		if err != nil {
			t.Fatalf("options %+v: %v", opt, err)
		}
		if !opt.Greedy && rep.Cost > exact.Cost+1e-9 {
			t.Errorf("options %+v: cost %v worse than exact %v", opt, rep.Cost, exact.Cost)
		}
		if opt.Greedy && rep.Cost < exact.Cost-1e-9 {
			t.Errorf("greedy beat the exact optimum: %v < %v", rep.Cost, exact.Cost)
		}
	}
}

// TestFacadeWorkersEquivalent: the public Workers knob must not change
// the outcome, only the parallelism.
func TestFacadeWorkersEquivalent(t *testing.T) {
	cg, lib := buildSystem(t)
	_, serial, err := Synthesize(cg, lib, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, parallel, err := Synthesize(cg, lib, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Cost != parallel.Cost {
		t.Errorf("Workers changed the optimum: %v vs %v", serial.Cost, parallel.Cost)
	}
	if len(serial.Candidates) != len(parallel.Candidates) {
		t.Errorf("Workers changed the candidate count: %d vs %d",
			len(serial.Candidates), len(parallel.Candidates))
	}
	if want := min(4, runtime.GOMAXPROCS(0)); parallel.Workers != want {
		t.Errorf("report workers = %d, want %d", parallel.Workers, want)
	}
}

// TestFacadeWorkersClamped: a Workers value far above the CPUs the
// process may use must not start a pricing goroutine and placement
// scratch per merging. On MPEG4, with 1<<20 workers asked for, the
// report and the scratch_pools gauge stay at or below GOMAXPROCS, and
// the result equals the serial run's.
func TestFacadeWorkersClamped(t *testing.T) {
	cg, lib := workloads.MPEG4(), workloads.MPEG4Technology().Library()
	_, serial, err := Synthesize(cg, lib, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ob := NewObserver(ObserverConfig{Metrics: true})
	_, rep, err := Synthesize(cg, lib, Options{Workers: 1 << 20, Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	if rep.Workers > procs {
		t.Errorf("report workers = %d, above GOMAXPROCS %d", rep.Workers, procs)
	}
	if pools := scratchPools(ob); pools < 1 || pools > int64(procs) {
		t.Errorf("synth/price/scratch_pools = %d, want 1..%d", pools, procs)
	}
	if rep.Cost != serial.Cost || len(rep.Candidates) != len(serial.Candidates) {
		t.Errorf("clamped run: cost %v with %d candidates, serial %v with %d",
			rep.Cost, len(rep.Candidates), serial.Cost, len(serial.Candidates))
	}
}

// TestFacadeWorkersDefaultIsGOMAXPROCS: Workers 0 means the CPUs the
// process may run on at once, the same cap a positive value gets, not
// every CPU of the host. Under GOMAXPROCS 1, MPEG4 must price on one
// lane.
func TestFacadeWorkersDefaultIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ob := NewObserver(ObserverConfig{Metrics: true})
	_, rep, err := Synthesize(workloads.MPEG4(), workloads.MPEG4Technology().Library(), Options{Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 1 {
		t.Errorf("report workers = %d under GOMAXPROCS 1, want 1", rep.Workers)
	}
	if pools := scratchPools(ob); pools != 1 {
		t.Errorf("synth/price/scratch_pools = %d under GOMAXPROCS 1, want 1", pools)
	}
}

// scratchPools reads the synth/price/scratch_pools gauge, -1 if unset.
func scratchPools(ob *Observer) int64 {
	for _, g := range ob.Metrics().Snapshot().Gauges {
		if g.Name == "synth/price/scratch_pools" {
			return g.Value
		}
	}
	return -1
}

func TestFacadeSimulate(t *testing.T) {
	cg, lib := buildSystem(t)
	ig, _, err := Synthesize(cg, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(ig)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if !res.AllSatisfied() {
		t.Errorf("channels starved: %+v", res.Channels)
	}
}

func TestFacadeRendering(t *testing.T) {
	cg, lib := buildSystem(t)
	ig, _, err := Synthesize(cg, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, svg := range map[string]string{
		"implementation": RenderSVG(ig),
		"constraint":     RenderConstraintSVG(cg),
	} {
		if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
			t.Errorf("%s SVG malformed", name)
		}
	}
}

func TestFacadeJSONRoundTrips(t *testing.T) {
	cg, lib := buildSystem(t)
	cgData, err := json.Marshal(cg)
	if err != nil {
		t.Fatal(err)
	}
	cg2, err := DecodeConstraintGraph(cgData)
	if err != nil {
		t.Fatalf("DecodeConstraintGraph: %v", err)
	}
	if cg2.NumChannels() != cg.NumChannels() {
		t.Error("constraint graph round trip lost channels")
	}
	libData, err := json.Marshal(lib)
	if err != nil {
		t.Fatal(err)
	}
	lib2, err := DecodeLibrary(libData)
	if err != nil {
		t.Fatalf("DecodeLibrary: %v", err)
	}
	if len(lib2.Links) != len(lib.Links) {
		t.Error("library round trip lost links")
	}
	// Decoded inputs must synthesize identically.
	_, r1, err := Synthesize(cg, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := Synthesize(cg2, lib2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Cost-r2.Cost) > 1e-9 {
		t.Errorf("round-tripped inputs changed the optimum: %v vs %v", r1.Cost, r2.Cost)
	}
}
