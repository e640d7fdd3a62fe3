package merging

// The flat-representation refactor (bitset live/in-candidate sets,
// dense matrix rows) must be a pure change of representation: the
// benchmark gate pins the enumeration counters on the fixed workloads,
// and this file pins them on *arbitrary* instances. enumerateRef below
// preserves the pre-refactor bookkeeping — an active index slice
// rebuilt per level and an in-candidate hash map — and the property
// test checks, over randomized graphs, policies and arity caps, that the
// bitset implementation returns identical candidate sets, identical
// Theorem 3.1 eliminations, and identical counters.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/library"
	"repro/internal/model"
)

// enumerateRef is the pre-refactor enumeration loop: same prune order,
// same subset odometer, but map/slice bookkeeping instead of bitsets.
// Kept uncancellable (no context) — the property runs to completion.
func enumerateRef(cg *model.ConstraintGraph, lib *library.Library, opt Options) *Result {
	n := cg.NumChannels()
	gamma := Gamma(cg)
	delta := Delta(cg)
	bw := BandwidthVector(cg)
	maxK := opt.MaxK
	if maxK <= 0 || maxK > n {
		maxK = n
	}
	res := &Result{
		ByK:          make(map[int][][]model.ChannelID),
		EliminatedAt: make(map[model.ChannelID]int),
		maxArity:     make(map[model.ChannelID]int),
	}
	active := make([]int, 0, n)
	for i := 0; i < n; i++ {
		active = append(active, i)
	}
	for k := 2; k <= maxK && len(active) >= k; k++ {
		inCandidate := make(map[int]bool)
		var sets [][]model.ChannelID
		forEachSubset(active, k, func(subset []int) bool {
			res.SetsTested++
			pruned := false
			if !opt.DisableTheorem32 && NotMergeableBandwidth(bw, subset, lib) {
				pruned = true
				res.PrunedTheorem32++
			}
			if !pruned {
				if k == 2 {
					if !opt.DisableLemma31 && NotMergeablePair(gamma, delta, subset[0], subset[1]) {
						pruned = true
						res.PrunedLemma31++
					}
				} else {
					if !opt.DisableLemma32 && NotMergeableSet(gamma, delta, subset, opt.Policy) {
						pruned = true
						res.PrunedLemma32++
					}
				}
			}
			if pruned {
				res.SetsPruned++
				return true
			}
			ids := make([]model.ChannelID, k)
			for i, a := range subset {
				ids[i] = model.ChannelID(a)
			}
			sets = append(sets, ids)
			res.total++
			for _, a := range subset {
				inCandidate[a] = true
				res.maxArity[model.ChannelID(a)] = k
			}
			return true
		})
		res.ByK[k] = sets
		if len(sets) == 0 {
			break
		}
		if !opt.DisableTheorem31 {
			var next []int
			for _, a := range active {
				if inCandidate[a] {
					next = append(next, a)
				} else if res.EliminatedAt[model.ChannelID(a)] == 0 {
					res.EliminatedAt[model.ChannelID(a)] = k
				}
			}
			active = next
		}
	}
	return res
}

func refTestLib(maxBW float64) *library.Library {
	return &library.Library{
		Links: []library.Link{
			{Name: "thin", Bandwidth: maxBW / 4, MaxSpan: 1e18, CostPerLength: 2},
			{Name: "fat", Bandwidth: maxBW, MaxSpan: 1e18, CostPerLength: 4},
		},
		Nodes: []library.Node{
			{Name: "mux", Kind: library.Mux},
			{Name: "demux", Kind: library.Demux},
		},
	}
}

func refRandomGraph(r *rand.Rand, nch int) *model.ConstraintGraph {
	cg := model.NewConstraintGraph(geom.Euclidean)
	for i := 0; i < nch; i++ {
		u := cg.MustAddPort(model.Port{
			Name:     "u" + string(rune('A'+i)),
			Position: geom.Pt(r.Float64()*100, r.Float64()*100),
		})
		v := cg.MustAddPort(model.Port{
			Name:     "v" + string(rune('A'+i)),
			Position: geom.Pt(r.Float64()*100, r.Float64()*100),
		})
		cg.MustAddChannel(model.Channel{
			Name: "a" + string(rune('A'+i)), From: u, To: v,
			Bandwidth: 1 + r.Float64()*10,
		})
	}
	return cg
}

// TestEnumerateMatchesReference is the property test: for random
// graphs, reference policies, arity caps and ablation switches, the
// bitset enumeration must agree with the pre-refactor
// reference byte for byte — candidate sets, elimination levels, and
// every counter the benchmark gate pins.
func TestEnumerateMatchesReference(t *testing.T) {
	lib := refTestLib(40)
	prop := func(seed int64, nRaw, polRaw, maxKRaw uint8, dis31, dis32, disT31, disT32 bool) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%7 // 2..8 channels
		cg := refRandomGraph(r, n)
		opt := Options{
			Policy:           RefPolicy(int(polRaw) % 2),
			MaxK:             int(maxKRaw) % (n + 2), // 0 (=n) .. n+1 (clamped)
			DisableLemma31:   dis31,
			DisableLemma32:   dis32,
			DisableTheorem31: disT31,
			DisableTheorem32: disT32,
		}
		want := enumerateRef(cg, lib, opt)
		got, err := Enumerate(cg, lib, opt)
		if err != nil {
			t.Logf("Enumerate: %v", err)
			return false
		}
		if !reflect.DeepEqual(got.ByK, want.ByK) {
			t.Logf("ByK diverged:\n got %v\nwant %v", got.ByK, want.ByK)
			return false
		}
		if !reflect.DeepEqual(got.EliminatedAt, want.EliminatedAt) {
			t.Logf("EliminatedAt diverged: got %v want %v", got.EliminatedAt, want.EliminatedAt)
			return false
		}
		if !reflect.DeepEqual(got.maxArity, want.maxArity) {
			t.Logf("maxArity diverged: got %v want %v", got.maxArity, want.maxArity)
			return false
		}
		counters := got.SetsTested == want.SetsTested &&
			got.SetsPruned == want.SetsPruned &&
			got.PrunedLemma31 == want.PrunedLemma31 &&
			got.PrunedLemma32 == want.PrunedLemma32 &&
			got.PrunedTheorem32 == want.PrunedTheorem32 &&
			got.total == want.total
		if !counters {
			t.Logf("counters diverged:\n got %+v\nwant %+v", got, want)
		}
		return counters
	}
	cfg := &quick.Config{MaxCount: 150}
	if testing.Short() {
		cfg.MaxCount = 40
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
