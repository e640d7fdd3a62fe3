package viz

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/impl"
	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/p2p"
	"repro/internal/synth"
	"repro/internal/workloads"
)

func TestConstraintGraphSVG(t *testing.T) {
	cg := workloads.WAN()
	svg := ConstraintGraph(cg, Options{ShowLabels: true})
	for _, want := range []string{
		"<svg", "</svg>", "<circle", "<line",
		">a1<", ">a8<", // channel labels
		">A<", ">D<", // module labels
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if strings.Contains(svg, "NaN") {
		t.Error("SVG contains NaN coordinates")
	}
}

func TestConstraintGraphDeterministic(t *testing.T) {
	cg := workloads.WAN()
	a := ConstraintGraph(cg, Options{ShowLabels: true})
	b := ConstraintGraph(cg, Options{ShowLabels: true})
	if a != b {
		t.Error("rendering is not deterministic")
	}
}

func TestImplementationSVGFig4(t *testing.T) {
	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	ig, _, err := synth.Synthesize(cg, lib, synth.Options{
		Merging: merging.Options{Policy: merging.MaxIndexRef},
	})
	if err != nil {
		t.Fatal(err)
	}
	svg := Implementation(ig, Options{ShowLabels: true})
	// Figure 4 conventions: dashed radio, solid optical, plus the mux
	// and demux drawn as squares and a legend.
	for _, want := range []string{
		"stroke-dasharray",     // radio dash
		"<rect",                // communication vertices (and background)
		">radio<", ">optical<", // legend entries
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestImplementationSVGFig5(t *testing.T) {
	cg := workloads.MPEG4()
	lib := workloads.MPEG4Technology().Library()
	ig, _, err := p2p.Synthesize(cg, lib)
	if err != nil {
		t.Fatal(err)
	}
	svg := Implementation(ig, Options{})
	// 55 repeaters drawn as squares (plus the white background rect).
	if got := strings.Count(svg, "<rect"); got != 56 {
		t.Errorf("rect count = %d, want 56 (background + 55 repeaters)", got)
	}
	if !strings.Contains(svg, ">wire<") {
		t.Error("legend missing wire entry")
	}
}

func TestDegenerateGeometry(t *testing.T) {
	// All ports at one point must not divide by zero.
	cg := model.NewConstraintGraph(geom.Euclidean)
	u := cg.MustAddPort(model.Port{Name: "u", Position: geom.Pt(5, 5)})
	v := cg.MustAddPort(model.Port{Name: "v", Position: geom.Pt(5, 5)})
	_ = v
	_ = u
	svg := ConstraintGraph(cg, Options{})
	if !strings.Contains(svg, "<svg") || strings.Contains(svg, "NaN") {
		t.Errorf("degenerate rendering broken:\n%s", svg)
	}
}

func TestZeroLengthLinkArrow(t *testing.T) {
	// A zero-length link (coincident endpoints) must not emit NaN
	// arrowheads.
	cg := model.NewConstraintGraph(geom.Euclidean)
	u := cg.MustAddPort(model.Port{Name: "u", Position: geom.Pt(0, 0)})
	v := cg.MustAddPort(model.Port{Name: "v", Position: geom.Pt(10, 0)})
	ch := cg.MustAddChannel(model.Channel{Name: "c", From: u, To: v, Bandwidth: 1})
	_ = ch
	ig := impl.New(cg)
	svg := Implementation(ig, Options{})
	if strings.Contains(svg, "NaN") {
		t.Error("NaN in SVG output")
	}
}

func TestEscape(t *testing.T) {
	if got := escape(`a<b>&"c`); got != "a&lt;b&gt;&amp;&quot;c" {
		t.Errorf("escape = %q", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Width != 640 || o.Height != 480 || o.Margin != 40 || o.LinkStyles == nil {
		t.Errorf("defaults wrong: %+v", o)
	}
	custom := Options{Width: 100, Height: 50, Margin: 5}.withDefaults()
	if custom.Width != 100 || custom.Height != 50 || custom.Margin != 5 {
		t.Errorf("custom sizes overridden: %+v", custom)
	}
}
