package library

import (
	"math"
	"testing"
)

func validLibrary() *Library {
	return &Library{
		Links: []Link{
			{Name: "radio", Bandwidth: 11, MaxSpan: math.Inf(1), CostPerLength: 2},
			{Name: "optical", Bandwidth: 1000, MaxSpan: math.Inf(1), CostPerLength: 4},
			{Name: "segment", Bandwidth: 5, MaxSpan: 0.6, CostFixed: 1},
		},
		Nodes: []Node{
			{Name: "rep", Kind: Repeater, Cost: 1},
			{Name: "rep-cheap", Kind: Repeater, Cost: 0.5},
			{Name: "mux4", Kind: Mux, Cost: 2},
			{Name: "demux4", Kind: Demux, Cost: 2},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validLibrary().Validate(); err != nil {
		t.Errorf("valid library rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		lib  Library
	}{
		{"no links", Library{}},
		{"empty link name", Library{Links: []Link{{Bandwidth: 1, MaxSpan: 1, CostFixed: 1}}}},
		{"duplicate names", Library{Links: []Link{
			{Name: "x", Bandwidth: 1, MaxSpan: 1, CostFixed: 1},
			{Name: "x", Bandwidth: 2, MaxSpan: 1, CostFixed: 1},
		}}},
		{"zero bandwidth", Library{Links: []Link{{Name: "x", MaxSpan: 1, CostFixed: 1}}}},
		{"zero span", Library{Links: []Link{{Name: "x", Bandwidth: 1, CostFixed: 1}}}},
		{"negative cost", Library{Links: []Link{{Name: "x", Bandwidth: 1, MaxSpan: 1, CostFixed: -1}}}},
		{"free link", Library{Links: []Link{{Name: "x", Bandwidth: 1, MaxSpan: 1}}}},
		{"bad node name", Library{
			Links: []Link{{Name: "x", Bandwidth: 1, MaxSpan: 1, CostFixed: 1}},
			Nodes: []Node{{Kind: Repeater}},
		}},
		{"node/link name clash", Library{
			Links: []Link{{Name: "x", Bandwidth: 1, MaxSpan: 1, CostFixed: 1}},
			Nodes: []Node{{Name: "x", Kind: Repeater}},
		}},
		{"negative node cost", Library{
			Links: []Link{{Name: "x", Bandwidth: 1, MaxSpan: 1, CostFixed: 1}},
			Nodes: []Node{{Name: "n", Kind: Repeater, Cost: -1}},
		}},
	}
	for _, c := range cases {
		if err := c.lib.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestLinkCost(t *testing.T) {
	l := Link{Name: "radio", Bandwidth: 11, MaxSpan: math.Inf(1), CostPerLength: 2}
	if got := l.Cost(10); got != 20 {
		t.Errorf("Cost(10) = %v, want 20", got)
	}
	fixed := Link{Name: "seg", Bandwidth: 1, MaxSpan: 0.6, CostFixed: 3}
	if got := fixed.Cost(0.5); got != 3 {
		t.Errorf("fixed Cost(0.5) = %v, want 3", got)
	}
	mixed := Link{Name: "m", Bandwidth: 1, MaxSpan: 5, CostFixed: 1, CostPerLength: 2}
	if got := mixed.Cost(2); got != 5 {
		t.Errorf("mixed Cost(2) = %v, want 5", got)
	}
}

func TestLinkSpanPredicates(t *testing.T) {
	seg := Link{Name: "seg", Bandwidth: 1, MaxSpan: 0.6, CostFixed: 1}
	if !seg.CanSpan(0.6) || seg.CanSpan(0.61) {
		t.Error("CanSpan boundary wrong")
	}
	if seg.Unbounded() {
		t.Error("bounded link reported unbounded")
	}
	radio := Link{Name: "r", Bandwidth: 1, MaxSpan: math.Inf(1), CostPerLength: 1}
	if !radio.Unbounded() || !radio.CanSpan(1e12) {
		t.Error("unbounded link predicates wrong")
	}
}

func TestMaxBandwidth(t *testing.T) {
	lib := validLibrary()
	if got := lib.MaxBandwidth(); got != 1000 {
		t.Errorf("MaxBandwidth = %v, want 1000", got)
	}
}

func TestLinkByName(t *testing.T) {
	lib := validLibrary()
	if l, ok := lib.LinkByName("optical"); !ok || l.Bandwidth != 1000 {
		t.Errorf("LinkByName(optical) = %+v, %v", l, ok)
	}
	if _, ok := lib.LinkByName("zzz"); ok {
		t.Error("unknown link lookup should fail")
	}
}

func TestCheapestNode(t *testing.T) {
	lib := validLibrary()
	n, ok := lib.CheapestNode(Repeater)
	if !ok || n.Name != "rep-cheap" {
		t.Errorf("CheapestNode(Repeater) = %+v, %v", n, ok)
	}
	if _, ok := (&Library{}).CheapestNode(Mux); ok {
		t.Error("empty library should have no mux")
	}
}

func TestNodeCost(t *testing.T) {
	lib := validLibrary()
	if got := lib.NodeCost(Repeater); got != 0.5 {
		t.Errorf("NodeCost(Repeater) = %v, want 0.5", got)
	}
	if got := (&Library{}).NodeCost(Mux); !math.IsInf(got, 1) {
		t.Errorf("missing node kind cost = %v, want +Inf", got)
	}
}

func TestNodeKindString(t *testing.T) {
	if Repeater.String() != "repeater" || Mux.String() != "mux" || Demux.String() != "demux" {
		t.Error("kind names wrong")
	}
	if NodeKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}
