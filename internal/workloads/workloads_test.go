package workloads

import (
	"math"
	"strings"
	"testing"

	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/p2p"
)

// TableTolerance is the acceptance bound of experiments E1/E2: every
// reproduced matrix entry must sit within this distance of the published
// value (the tables are rounded to two decimals, so 0.03 km absorbs the
// rounding of sums of two rounded coordinates).
const TableTolerance = 0.03

func TestWANStructure(t *testing.T) {
	cg := WAN()
	if cg.NumChannels() != 8 {
		t.Fatalf("channels = %d, want 8", cg.NumChannels())
	}
	if cg.NumPorts() != 16 {
		t.Fatalf("ports = %d, want 16 (dedicated per endpoint)", cg.NumPorts())
	}
	if err := cg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cg.Norm().Name() != "euclidean" {
		t.Errorf("norm = %s", cg.Norm().Name())
	}
	for i := 0; i < 8; i++ {
		if b := cg.Bandwidth(model.ChannelID(i)); b != WANBandwidth {
			t.Errorf("channel %d bandwidth = %v", i, b)
		}
	}
	if _, ok := WANNodePosition("D"); !ok {
		t.Error("node D missing")
	}
	if _, ok := WANNodePosition("Z"); ok {
		t.Error("node Z should not exist")
	}
}

func TestWANReproducesTable1(t *testing.T) {
	cg := WAN()
	gamma := merging.Gamma(cg)
	want := PaperTable1()
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			got := gamma.At(i, j)
			if math.Abs(got-want[i][j]) > TableTolerance {
				t.Errorf("Γ(a%d,a%d) = %.3f, published %.2f", i+1, j+1, got, want[i][j])
			}
		}
	}
}

func TestWANReproducesTable2(t *testing.T) {
	cg := WAN()
	delta := merging.Delta(cg)
	want := PaperTable2()
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			got := delta.At(i, j)
			if math.Abs(got-want[i][j]) > TableTolerance {
				t.Errorf("Δ(a%d,a%d) = %.3f, published %.2f", i+1, j+1, got, want[i][j])
			}
		}
	}
}

func TestWANLemma31MatchesPaper(t *testing.T) {
	// 13 two-way candidates; a8 mergeable with nothing.
	cg := WAN()
	res, err := merging.Enumerate(cg, WANLibrary(), merging.Options{Policy: merging.MaxIndexRef, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Count(2), PaperCandidateCounts()[2]; got != want {
		t.Errorf("2-way candidates = %d, paper %d", got, want)
	}
	a8, _ := cg.ChannelByName("a8")
	for _, pair := range res.ByK[2] {
		for _, ch := range pair {
			if ch == a8 {
				t.Errorf("a8 appears in pair %v; paper says unmergeable", pair)
			}
		}
	}
}

func TestWANLibraryValid(t *testing.T) {
	lib := WANLibrary()
	if err := lib.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if lib.MaxBandwidth() != 1000 {
		t.Errorf("MaxBandwidth = %v", lib.MaxBandwidth())
	}
}

func TestMPEG4RepeaterCount(t *testing.T) {
	// Experiment E6 / Figure 5: 55 repeaters at l_crit = 0.6 mm.
	cg := MPEG4()
	tech := MPEG4Technology()
	if got := tech.TotalRepeaters(cg); got != MPEG4ExpectedRepeaters {
		t.Errorf("analytic repeater count = %d, want %d", got, MPEG4ExpectedRepeaters)
	}
	// The synthesized segmentation must realize exactly that count.
	ig, plans, err := p2p.Synthesize(cg, tech.Library())
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if err := ig.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	repeaters := 0
	for _, plan := range plans {
		repeaters += (plan.Segments - 1) * plan.Chains
	}
	if repeaters != MPEG4ExpectedRepeaters {
		t.Errorf("synthesized repeaters = %d, want %d", repeaters, MPEG4ExpectedRepeaters)
	}
	if ig.NumCommVertices() != MPEG4ExpectedRepeaters {
		t.Errorf("communication vertices = %d, want %d", ig.NumCommVertices(), MPEG4ExpectedRepeaters)
	}
}

func TestMPEG4Structure(t *testing.T) {
	cg := MPEG4()
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cg.Norm().Name() != "manhattan" {
		t.Errorf("norm = %s, want manhattan", cg.Norm().Name())
	}
	if cg.NumChannels() != 10 {
		t.Errorf("channels = %d, want 10", cg.NumChannels())
	}
	// No channel length may be an exact multiple of l_crit (that would
	// make the paper's floor cost and segmentation count diverge).
	tech := MPEG4Technology()
	for i := 0; i < cg.NumChannels(); i++ {
		d := cg.Distance(model.ChannelID(i))
		ratio := d / tech.LCrit
		if math.Abs(ratio-math.Round(ratio)) < 1e-9 {
			t.Errorf("channel %d length %v is an exact l_crit multiple", i, d)
		}
	}
}

func TestRandomWANDeterministic(t *testing.T) {
	a := RandomWAN(RandomWANConfig{Seed: 5, Clusters: 3, Channels: 10})
	b := RandomWAN(RandomWANConfig{Seed: 5, Clusters: 3, Channels: 10})
	if a.NumChannels() != 10 || b.NumChannels() != 10 {
		t.Fatal("channel count wrong")
	}
	for i := 0; i < 10; i++ {
		id := model.ChannelID(i)
		if a.Distance(id) != b.Distance(id) || a.Bandwidth(id) != b.Bandwidth(id) {
			t.Fatalf("same seed produced different instances at channel %d", i)
		}
	}
	c := RandomWAN(RandomWANConfig{Seed: 6, Clusters: 3, Channels: 10})
	same := true
	for i := 0; i < 10; i++ {
		if a.Distance(model.ChannelID(i)) != c.Distance(model.ChannelID(i)) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical instances")
	}
}

func TestRandomWANValidates(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		cg := RandomWAN(RandomWANConfig{Seed: seed, Clusters: 2, Channels: 6})
		if err := cg.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestRandomSoCValidates(t *testing.T) {
	cg := RandomSoC(RandomSoCConfig{Seed: 1, Modules: 6, Channels: 8})
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cg.Norm().Name() != "manhattan" {
		t.Error("SoC instances must use Manhattan norm")
	}
	if cg.NumChannels() != 8 {
		t.Errorf("channels = %d", cg.NumChannels())
	}
}

func TestLANStructure(t *testing.T) {
	cg := LAN()
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cg.NumChannels() != 9 {
		t.Errorf("channels = %d, want 9", cg.NumChannels())
	}
	lib := LANLibrary()
	if err := lib.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := lib.LinkByName("wireless"); !ok {
		t.Error("wireless link missing")
	}
	if _, ok := lib.LinkByName("fiber"); !ok {
		t.Error("fiber link missing")
	}
}

func TestMCMStructure(t *testing.T) {
	cg := MCM()
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cg.NumChannels() != 12 {
		t.Errorf("channels = %d, want 12", cg.NumChannels())
	}
	if cg.Norm().Name() != "manhattan" {
		t.Error("board routing is rectilinear; expected Manhattan norm")
	}
	lib := MCMLibrary()
	if err := lib.Validate(); err != nil {
		t.Fatal(err)
	}
	// The fabric must be synthesizable end to end: channels above
	// 16 Gbps need duplication or SerDes, and memory-bound channels are
	// merge candidates into the hub.
	ig, plans, err := p2p.Synthesize(cg, lib)
	if err != nil {
		t.Fatalf("p2p: %v", err)
	}
	if err := ig.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Bandwidth-driven media mix: the 24 Gbps memory channels exceed one
	// trace bundle and upgrade to SerDes, while the thin ring and I/O
	// channels stay on cheap traces.
	media := map[string]bool{}
	for _, p := range plans {
		media[p.Link.Name] = true
	}
	if !media["trace"] || !media["serdes"] {
		t.Errorf("expected a trace+serdes mix, got %v", media)
	}
}

func TestNoCStructure(t *testing.T) {
	cg := NoC()
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cg.NumChannels() != 8 {
		t.Errorf("channels = %d, want 8", cg.NumChannels())
	}
	if cg.Norm().Name() != "manhattan" {
		t.Error("NoC must use Manhattan norm")
	}
	if err := NoCLibrary().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperTablesShape(t *testing.T) {
	t1 := PaperTable1()
	t2 := PaperTable2()
	// Spot checks against the publication.
	if t1[0][1] != 10.38 || t1[6][7] != 7.21 || t1[3][4] != 197.20 {
		t.Error("Table 1 transcription wrong")
	}
	if t2[0][1] != 9.05 || t2[3][6] != 100.00 || t2[6][7] != 7.21 {
		t.Error("Table 2 transcription wrong")
	}
	// Lower triangles must stay zero.
	if t1[1][0] != 0 || t2[7][6] != 0 {
		t.Error("lower triangle should be zero")
	}
}

// TestExample: every built-in example name yields a graph and library
// that validate, and an unknown name is an error naming all five.
func TestExample(t *testing.T) {
	for _, name := range []string{"wan", "lan", "mcm", "noc", "mpeg4"} {
		cg, lib, err := Example(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cg.Validate(); err != nil {
			t.Errorf("%s graph: %v", name, err)
		}
		if err := lib.Validate(); err != nil {
			t.Errorf("%s library: %v", name, err)
		}
	}
	_, _, err := Example("fig9")
	if err == nil || !strings.Contains(err.Error(), "wan, lan, mcm, noc, mpeg4") {
		t.Errorf("unknown example: error %v, want one naming all five", err)
	}
}
