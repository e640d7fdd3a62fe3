package serve

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzSynthesizeRequest decodes the bytes as a POST /v1/synthesize
// body through the handler's own steps: the strict JSON decode, then
// the instance decode (the example catalog or the inline graph and
// library). Every request they accept must carry a graph and a library
// that validate, and the spec its WAL record stores must decode, as a
// restart decodes it, to the same options and instance: channel count,
// norm and links. The seed corpus in
// testdata/fuzz/FuzzSynthesizeRequest covers every example, inline
// graphs, an unknown field, trailing garbage, negative and huge
// options, and batch-shaped bodies (a graphs array), which the strict
// decoder refuses.
func FuzzSynthesizeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SynthesizeRequest
		if decodeJSON(bytes.NewReader(body), &req) != nil {
			return
		}
		cg, lib, _, err := decodeInstance(&req)
		if err != nil {
			return // a 400, not checked further
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
	})
}
