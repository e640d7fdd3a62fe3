package model

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/geom"
)

func twoPortGraph(t *testing.T) (*ConstraintGraph, PortID, PortID) {
	t.Helper()
	cg := NewConstraintGraph(geom.Euclidean)
	u := cg.MustAddPort(Port{Name: "u", Position: geom.Pt(0, 0)})
	v := cg.MustAddPort(Port{Name: "v", Position: geom.Pt(3, 4)})
	return cg, u, v
}

func TestAddPortAndChannel(t *testing.T) {
	cg, u, v := twoPortGraph(t)
	ch := cg.MustAddChannel(Channel{Name: "a1", From: u, To: v, Bandwidth: 10})
	if cg.NumPorts() != 2 || cg.NumChannels() != 1 {
		t.Fatalf("counts: %d ports %d channels", cg.NumPorts(), cg.NumChannels())
	}
	if got := cg.Distance(ch); got != 5 {
		t.Errorf("Distance = %v, want 5", got)
	}
	if got := cg.Bandwidth(ch); got != 10 {
		t.Errorf("Bandwidth = %v, want 10", got)
	}
	if err := cg.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNilNormDefaultsToEuclidean(t *testing.T) {
	cg := NewConstraintGraph(nil)
	if cg.Norm().Name() != "euclidean" {
		t.Errorf("default norm = %q", cg.Norm().Name())
	}
}

func TestManhattanDistance(t *testing.T) {
	cg := NewConstraintGraph(geom.Manhattan)
	u := cg.MustAddPort(Port{Name: "u", Position: geom.Pt(0, 0)})
	v := cg.MustAddPort(Port{Name: "v", Position: geom.Pt(3, 4)})
	ch := cg.MustAddChannel(Channel{Name: "a", From: u, To: v, Bandwidth: 1})
	if got := cg.Distance(ch); got != 7 {
		t.Errorf("Manhattan distance = %v, want 7", got)
	}
}

func TestAddPortErrors(t *testing.T) {
	cg, _, _ := twoPortGraph(t)
	if _, err := cg.AddPort(Port{Name: ""}); err == nil {
		t.Error("empty name should be rejected")
	}
	if _, err := cg.AddPort(Port{Name: "u"}); err == nil {
		t.Error("duplicate name should be rejected")
	}
	if _, err := cg.AddPort(Port{Name: "w", Position: geom.Pt(math.NaN(), 0)}); err == nil {
		t.Error("NaN position should be rejected")
	}
}

func TestAddChannelErrors(t *testing.T) {
	cg, u, v := twoPortGraph(t)
	cg.MustAddChannel(Channel{Name: "a1", From: u, To: v, Bandwidth: 10})
	cases := []Channel{
		{Name: "", From: u, To: v, Bandwidth: 1},
		{Name: "a1", From: u, To: v, Bandwidth: 1},  // duplicate
		{Name: "a2", From: u, To: u, Bandwidth: 1},  // self-loop
		{Name: "a3", From: u, To: v, Bandwidth: 0},  // zero bandwidth
		{Name: "a4", From: u, To: v, Bandwidth: -5}, // negative
		{Name: "a5", From: u, To: 99, Bandwidth: 1}, // dangling
		{Name: "a6", From: u, To: v, Bandwidth: math.Inf(1)},
	}
	for _, c := range cases {
		if _, err := cg.AddChannel(c); err == nil {
			t.Errorf("channel %+v should be rejected", c)
		}
	}
}

func TestLookups(t *testing.T) {
	cg, u, v := twoPortGraph(t)
	ch := cg.MustAddChannel(Channel{Name: "a1", From: u, To: v, Bandwidth: 10})
	if id, ok := cg.PortByName("v"); !ok || id != v {
		t.Errorf("PortByName(v) = %v, %v", id, ok)
	}
	if _, ok := cg.PortByName("zzz"); ok {
		t.Error("unknown port lookup should fail")
	}
	if id, ok := cg.ChannelByName("a1"); !ok || id != ch {
		t.Errorf("ChannelByName(a1) = %v, %v", id, ok)
	}
	if _, ok := cg.ChannelByName("zzz"); ok {
		t.Error("unknown channel lookup should fail")
	}
}

func TestChannelIDsAndAggregates(t *testing.T) {
	cg, u, v := twoPortGraph(t)
	cg.MustAddChannel(Channel{Name: "b", From: u, To: v, Bandwidth: 10})
	cg.MustAddChannel(Channel{Name: "a", From: v, To: u, Bandwidth: 5})
	ids := cg.ChannelIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("ChannelIDs = %v", ids)
	}
}

func TestValidateEmptyGraph(t *testing.T) {
	cg := NewConstraintGraph(nil)
	if err := cg.Validate(); err == nil {
		t.Error("empty graph should fail validation")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	cg := NewConstraintGraph(geom.Manhattan)
	u := cg.MustAddPort(Port{Name: "u", Module: "M1", Position: geom.Pt(1.5, -2)})
	v := cg.MustAddPort(Port{Name: "v", Module: "M2", Position: geom.Pt(4, 6)})
	cg.MustAddChannel(Channel{Name: "a1", From: u, To: v, Bandwidth: 12.5})
	cg.MustAddChannel(Channel{Name: "a2", From: v, To: u, Bandwidth: 3})

	data, err := json.Marshal(cg)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := DecodeConstraintGraph(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Norm().Name() != "manhattan" {
		t.Errorf("norm = %q", got.Norm().Name())
	}
	if got.NumPorts() != 2 || got.NumChannels() != 2 {
		t.Fatalf("counts: %d ports %d channels", got.NumPorts(), got.NumChannels())
	}
	for i := range cg.ChannelIDs() {
		id := ChannelID(i)
		if cg.Distance(id) != got.Distance(id) {
			t.Errorf("channel %d distance changed: %v vs %v", i, cg.Distance(id), got.Distance(id))
		}
		if cg.Bandwidth(id) != got.Bandwidth(id) {
			t.Errorf("channel %d bandwidth changed", i)
		}
	}
	if p := got.Port(u); p.Module != "M1" {
		t.Errorf("module lost: %+v", p)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		`{`,
		`{"norm":"bogus","ports":[],"channels":[]}`,
		`{"norm":"euclidean","ports":[{"name":"u","x":0,"y":0}],"channels":[{"name":"c","from":"u","to":"missing","bandwidth":1}]}`,
		`{"norm":"euclidean","ports":[{"name":"u","x":0,"y":0}],"channels":[{"name":"c","from":"missing","to":"u","bandwidth":1}]}`,
		`{"norm":"euclidean","ports":[{"name":"u","x":0,"y":0},{"name":"u","x":1,"y":1}],"channels":[]}`,
		`{"norm":"euclidean","ports":[{"name":"u","x":0,"y":0},{"name":"v","x":1,"y":1}],"channels":[{"name":"c","from":"u","to":"v","bandwidth":-1}]}`,
	}
	for i, c := range cases {
		if _, err := DecodeConstraintGraph([]byte(c)); err == nil {
			t.Errorf("case %d should fail to decode", i)
		}
	}
}
