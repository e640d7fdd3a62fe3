package serve

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzSynthesizeRequest decodes the bytes as both POST bodies, a
// /v1/synthesize request and a /v1/batch request, through the
// handlers' own steps: the strict JSON decode, then the instance
// decode (the example catalog or the inline graph and library). Every
// request or batch member they accept must carry a graph and a library
// that validate, and the spec its WAL record stores must decode, as a
// restart decodes it, to the same options and instance: channel count,
// norm and links. The seed corpus in
// testdata/fuzz/FuzzSynthesizeRequest covers every example, inline
// graphs, an unknown field, trailing garbage, and negative and huge
// options.
func FuzzSynthesizeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SynthesizeRequest
		if decodeJSON(bytes.NewReader(body), &req) == nil {
			checkAccepted(t, req)
		}
		var batch BatchRequest
		if decodeJSON(bytes.NewReader(body), &batch) == nil {
			for _, g := range batch.Graphs {
				checkAccepted(t, g.SynthesizeRequest)
			}
		}
	})
}

// checkAccepted asserts FuzzSynthesizeRequest's properties for one
// decoded request; a request decodeInstance rejects gets a 400 (or a
// member error) and is not checked further.
func checkAccepted(t *testing.T, req SynthesizeRequest) {
	t.Helper()
	cg, lib, _, err := decodeInstance(&req)
	if err != nil {
		return
	}
	if err := cg.Validate(); err != nil {
		t.Fatalf("accepted graph does not validate: %v", err)
	}
	if err := lib.Validate(); err != nil {
		t.Fatalf("accepted library does not validate: %v", err)
	}
	spec := (&Job{req: req}).spec()
	got, cg2, lib2, err := decodeSpec(spec)
	switch {
	case err != nil:
		t.Fatalf("stored spec %s does not decode: %v", spec, err)
	case got.Options != req.Options:
		t.Fatalf("stored spec %s restores options %+v, want %+v", spec, got.Options, req.Options)
	case cg2.NumChannels() != cg.NumChannels() || cg2.Norm().Name() != cg.Norm().Name():
		t.Fatalf("stored spec %s restores %d channels under %s, want %d under %s",
			spec, cg2.NumChannels(), cg2.Norm().Name(), cg.NumChannels(), cg.Norm().Name())
	case !reflect.DeepEqual(lib2.Links, lib.Links):
		t.Fatalf("stored spec %s restores links %+v, want %+v", spec, lib2.Links, lib.Links)
	}
}
