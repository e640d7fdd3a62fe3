package soc

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/library"
	"repro/internal/model"
)

func TestTech180nm(t *testing.T) {
	tech := Tech180nm()
	if tech.LCrit != 0.6 {
		t.Errorf("LCrit = %v, want 0.6", tech.LCrit)
	}
	if tech.Name != "0.18um" {
		t.Errorf("Name = %q", tech.Name)
	}
}

func TestRepeaterCount(t *testing.T) {
	tech := Tech180nm()
	cases := []struct {
		d    float64
		want int
	}{
		{0, 0},
		{0.59, 0},
		{0.61, 1},
		{1.7, 2},
		{4.25, 7},
		{-1, 0},
	}
	for _, c := range cases {
		if got := tech.RepeaterCount(c.d); got != c.want {
			t.Errorf("RepeaterCount(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestTotalRepeaters(t *testing.T) {
	tech := Tech180nm()
	cg := model.NewConstraintGraph(geom.Manhattan)
	a := cg.MustAddPort(model.Port{Name: "a", Position: geom.Pt(0, 0)})
	b := cg.MustAddPort(model.Port{Name: "b", Position: geom.Pt(1.0, 0.7)}) // d=1.7 → 2
	c := cg.MustAddPort(model.Port{Name: "c", Position: geom.Pt(1.0, 1.0)}) // b→c d=0.3 → 0
	cg.MustAddChannel(model.Channel{Name: "ab", From: a, To: b, Bandwidth: 1})
	cg.MustAddChannel(model.Channel{Name: "bc", From: b, To: c, Bandwidth: 1})
	if got := tech.TotalRepeaters(cg); got != 2 {
		t.Errorf("TotalRepeaters = %d, want 2", got)
	}
}

func TestLibraryShape(t *testing.T) {
	lib := Tech180nm().Library()
	if err := lib.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	wire, ok := lib.LinkByName("wire")
	if !ok || wire.MaxSpan != 0.6 {
		t.Errorf("wire link wrong: %+v ok=%v", wire, ok)
	}
	for _, kind := range []library.NodeKind{library.Repeater, library.Mux, library.Demux} {
		if _, ok := lib.CheapestNode(kind); !ok {
			t.Errorf("library missing node kind %v", kind)
		}
	}
	if cost := lib.NodeCost(library.Repeater); cost != 1 {
		t.Errorf("repeater cost = %v, want 1 (cost unit = repeaters)", cost)
	}
}
