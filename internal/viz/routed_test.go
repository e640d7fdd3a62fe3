package viz

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/p2p"
	"repro/internal/routing"
	"repro/internal/workloads"
)

func TestRoutedImplementationSVG(t *testing.T) {
	cg := workloads.MPEG4()
	lib := workloads.MPEG4Technology().Library()
	ig, _, err := p2p.Synthesize(cg, lib)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := routing.RouteImplementation(ig)
	if err != nil {
		t.Fatal(err)
	}
	routeMap := make(map[graph.ArcID][]geom.Point, len(routed.Routes))
	for _, r := range routed.Routes {
		routeMap[r.Arc] = r.Points
	}
	svg := RoutedImplementation(ig, routeMap, Options{ShowLabels: true})
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("malformed SVG")
	}
	// One path element per link.
	if got := strings.Count(svg, "<path"); got != ig.NumLinks() {
		t.Errorf("path count = %d, want %d", got, ig.NumLinks())
	}
	if strings.Contains(svg, "NaN") {
		t.Error("NaN coordinates in SVG")
	}
	// Missing routes fall back to straight lines without panicking.
	partial := RoutedImplementation(ig, nil, Options{})
	if !strings.Contains(partial, "<path") {
		t.Error("fallback rendering missing paths")
	}
}

// Two renders of the same implementation must be byte-identical even
// when the route map was populated in different insertion orders: the
// renderer iterates routes in sorted-arc order, not map order.
func TestRoutedImplementationByteStable(t *testing.T) {
	cg := workloads.MPEG4()
	lib := workloads.MPEG4Technology().Library()
	ig, _, err := p2p.Synthesize(cg, lib)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := routing.RouteImplementation(ig)
	if err != nil {
		t.Fatal(err)
	}
	forward := make(map[graph.ArcID][]geom.Point, len(routed.Routes))
	for _, r := range routed.Routes {
		forward[r.Arc] = r.Points
	}
	backward := make(map[graph.ArcID][]geom.Point, len(routed.Routes))
	for i := len(routed.Routes) - 1; i >= 0; i-- {
		backward[routed.Routes[i].Arc] = routed.Routes[i].Points
	}
	ref := RoutedImplementation(ig, forward, Options{ShowLabels: true})
	for i := 0; i < 10; i++ {
		if got := RoutedImplementation(ig, backward, Options{ShowLabels: true}); got != ref {
			t.Fatalf("run %d: SVG differs across insertion orders", i)
		}
	}
}
