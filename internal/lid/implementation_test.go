package lid

import (
	"testing"

	"repro/internal/impl"
	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/p2p"
	"repro/internal/synth"
	"repro/internal/workloads"
)

func TestAnalyzeImplementationMPEG4SingleCycle(t *testing.T) {
	// At 0.18 µm every segmented wire piece (≤ 0.6 mm) is far below the
	// 12 mm reach: each link is single-cycle, but a channel's latency is
	// its hop count... no — links retime only when they exceed the
	// reach, so a chain of sub-reach segments still counts one cycle per
	// link in this model. The relevant observable: no relay stations.
	cg := workloads.MPEG4()
	lib := workloads.MPEG4Technology().Library()
	ig, _, err := p2p.Synthesize(cg, lib)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeImplementation(ig, params018())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRelays != 0 {
		t.Errorf("relays = %d, want 0 at 0.18 µm", rep.TotalRelays)
	}
	if rep.MultiCycleLinks != 0 {
		t.Errorf("multi-cycle links = %d, want 0", rep.MultiCycleLinks)
	}
	if rep.SingleCycleLinks != ig.NumLinks() {
		t.Errorf("single-cycle links = %d, want %d", rep.SingleCycleLinks, ig.NumLinks())
	}
}

func TestAnalyzeImplementationLatencyGrowsWithDSM(t *testing.T) {
	cg := workloads.MPEG4()
	lib := workloads.MPEG4Technology().Library()
	ig, _, err := synth.Synthesize(cg, lib, synth.Options{
		Merging: merging.Options{Policy: merging.MaxIndexRef, MaxK: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, gen := range DSMGenerations() {
		rep, err := AnalyzeImplementation(ig, ParamsFor(gen, 4))
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && rep.TotalRelays < prev {
			t.Errorf("%s: relays decreased: %d < %d", gen.Name, rep.TotalRelays, prev)
		}
		prev = rep.TotalRelays
		for ch, lat := range rep.LatencyCycles {
			if lat < 1 {
				t.Errorf("%s: channel %d latency %d < 1", gen.Name, ch, lat)
			}
		}
		if rep.MaxLatencyCycles < 1 {
			t.Errorf("%s: max latency %d", gen.Name, rep.MaxLatencyCycles)
		}
	}
}

func TestAnalyzeImplementationErrors(t *testing.T) {
	cg := workloads.MPEG4()
	// Missing implementations must error.
	ig := impl.New(cg)
	if _, err := AnalyzeImplementation(ig, params018()); err == nil {
		t.Error("empty implementation should error")
	}
	bad := params018()
	bad.VelocityMMPerNS = 0
	lib := workloads.MPEG4Technology().Library()
	full, _, err := p2p.Synthesize(cg, lib)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeImplementation(full, bad); err == nil {
		t.Error("invalid params should error")
	}
	_ = model.ChannelID(0)
}
