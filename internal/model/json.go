package model

import (
	"encoding/json"
	"fmt"

	"repro/internal/geom"
)

// jsonGraph is the serialized form of a ConstraintGraph. Positions are
// explicit and distances are derived on load, so a serialized graph can
// never carry inconsistent arc lengths.
type jsonGraph struct {
	Norm     string        `json:"norm"`
	Ports    []jsonPort    `json:"ports"`
	Channels []jsonChannel `json:"channels"`
}

type jsonPort struct {
	Name   string  `json:"name"`
	Module string  `json:"module,omitempty"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
}

type jsonChannel struct {
	Name      string  `json:"name"`
	From      string  `json:"from"`
	To        string  `json:"to"`
	Bandwidth float64 `json:"bandwidth"`
}

// MarshalJSON encodes the graph with port references by name.
func (cg *ConstraintGraph) MarshalJSON() ([]byte, error) {
	out := jsonGraph{Norm: cg.norm.Name()}
	for _, p := range cg.ports {
		out.Ports = append(out.Ports, jsonPort{
			Name:   p.Name,
			Module: p.Module,
			X:      p.Position.X,
			Y:      p.Position.Y,
		})
	}
	for _, c := range cg.channels {
		out.Channels = append(out.Channels, jsonChannel{
			Name:      c.Name,
			From:      cg.ports[c.From].Name,
			To:        cg.ports[c.To].Name,
			Bandwidth: c.Bandwidth,
		})
	}
	return json.Marshal(out)
}

// DecodeConstraintGraph parses a graph serialized by MarshalJSON.
func DecodeConstraintGraph(data []byte) (*ConstraintGraph, error) {
	var in jsonGraph
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("model: decode: %w", err)
	}
	norm, err := geom.NormByName(in.Norm)
	if err != nil {
		return nil, fmt.Errorf("model: decode: %w", err)
	}
	cg := NewConstraintGraph(norm)
	for _, p := range in.Ports {
		if _, err := cg.AddPort(Port{
			Name:     p.Name,
			Module:   p.Module,
			Position: geom.Pt(p.X, p.Y),
		}); err != nil {
			return nil, fmt.Errorf("model: decode: %w", err)
		}
	}
	for _, c := range in.Channels {
		from, ok := cg.PortByName(c.From)
		if !ok {
			return nil, fmt.Errorf("model: decode: channel %q references unknown port %q", c.Name, c.From)
		}
		to, ok := cg.PortByName(c.To)
		if !ok {
			return nil, fmt.Errorf("model: decode: channel %q references unknown port %q", c.Name, c.To)
		}
		if _, err := cg.AddChannel(Channel{
			Name:      c.Name,
			From:      from,
			To:        to,
			Bandwidth: c.Bandwidth,
		}); err != nil {
			return nil, fmt.Errorf("model: decode: %w", err)
		}
	}
	return cg, nil
}
