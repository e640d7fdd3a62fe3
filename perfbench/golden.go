package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"repro/cdcs"
)

//go:embed data/golden.json
var goldenJSON []byte

const (
	// defaultSeed is the seed whose pools the golden table covers.
	defaultSeed = 1
	// paperWANCost is the optimum the paper reports for Example 1, the
	// first entry of every synth-wan pool, printed to three decimals.
	paperWANCost = 464.552
	// goldenTol is the relative tolerance of a cost against the table.
	goldenTol = 1e-9
)

// goldenTable holds the optimum cost of every pool entry at the
// default seed, by workload and pool index.
type goldenTable struct {
	Seed  int64                `json:"seed"`
	Costs map[string][]float64 `json:"costs"`
}

// gate is the correctness check every op passes through.
type gate struct {
	// want holds the golden costs by pool index; nil for seeds the
	// table does not cover, which get every other check.
	want []float64
	// paperWAN marks pool entry 0 as the paper's Example 1.
	paperWAN bool
}

func newGate(workload string, seed int64, poolLen int) (*gate, error) {
	g := &gate{paperWAN: workload == "synth-wan"}
	if seed != defaultSeed {
		return g, nil
	}
	var t goldenTable
	if err := json.Unmarshal(goldenJSON, &t); err != nil {
		return nil, fmt.Errorf("decode golden table: %w", err)
	}
	g.want = t.Costs[workload]
	if t.Seed != seed || len(g.want) != poolLen {
		return nil, fmt.Errorf("golden table covers seed %d with %d %s costs; pool has %d", t.Seed, len(g.want), workload, poolLen)
	}
	return g, nil
}

// check judges pool entry i's successful result: provably optimal,
// not degraded, and at the golden cost.
func (g *gate) check(i int, optimal, degraded bool, cost float64) error {
	switch {
	case !optimal:
		return errors.New("result not proven optimal")
	case degraded:
		return errors.New("result degraded")
	case g.want != nil && math.Abs(cost-g.want[i]) > goldenTol*math.Abs(g.want[i]):
		return fmt.Errorf("instance %d cost %.12g, golden %.12g", i, cost, g.want[i])
	case g.paperWAN && i == 0 && math.Abs(cost-paperWANCost) > 5e-4:
		return fmt.Errorf("paper WAN cost %.6f, published %.3f", cost, paperWANCost)
	}
	return nil
}

// writeGolden synthesizes every pool entry of the default seed
// in-process and writes the table the gate reads. Run it only after a
// deliberate change to the pools.
func writeGolden(path string) error {
	t := goldenTable{Seed: defaultSeed, Costs: map[string][]float64{}}
	for _, w := range workloadNames {
		pool, err := makePool(w, defaultSeed)
		if err != nil {
			return err
		}
		ops, err := decodePool(pool)
		if err != nil {
			return err
		}
		for i, op := range ops {
			_, rep, err := cdcs.SynthesizeContext(context.Background(), op.cg, op.lib, cdcs.Options{Workers: 1})
			if err != nil {
				return fmt.Errorf("%s instance %d: %w", w, i, err)
			}
			if !rep.ResultOptimal() {
				return fmt.Errorf("%s instance %d: result not proven optimal", w, i)
			}
			t.Costs[w] = append(t.Costs[w], rep.Cost)
		}
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
