package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
)

// TraceparentHeader is the W3C Trace Context header name used to carry
// a SpanContext across process boundaries.
const TraceparentHeader = "traceparent"

// TraceID is a 128-bit trace identifier shared by every span of one
// distributed request, across however many replicas it touches.
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// SpanID is a 64-bit span identifier, unique within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// SpanContext identifies one span of one trace — the pair that crosses
// process boundaries in a traceparent header. The zero value is
// invalid and means "no trace".
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether the context names a real trace (per W3C, an
// all-zero trace or span ID is invalid).
func (sc SpanContext) Valid() bool {
	return !sc.TraceID.IsZero() && !sc.SpanID.IsZero()
}

// Traceparent serializes the context as a W3C traceparent value:
// "00-<32 hex trace-id>-<16 hex parent-id>-01" (version 00, sampled).
func (sc SpanContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-01", sc.TraceID, sc.SpanID)
}

// ParseTraceparent parses a W3C traceparent header value. It accepts
// version 00 exactly: "00-" + 32 lowercase hex + "-" + 16 lowercase
// hex + "-" + 2 lowercase hex flags, with non-zero IDs. Malformed or
// absent values return ok=false — callers fall back to a fresh root,
// never an error, so a bad upstream header can't fail a request.
func ParseTraceparent(h string) (sc SpanContext, ok bool) {
	if len(h) != 55 || h[0] != '0' || h[1] != '0' ||
		h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, false
	}
	// hex.Decode also accepts uppercase digits, which the W3C format
	// forbids.
	for i := 3; i < len(h); i++ {
		if 'A' <= h[i] && h[i] <= 'F' {
			return SpanContext{}, false
		}
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(h[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(h[36:52])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.DecodeString(h[53:55]); err != nil {
		return SpanContext{}, false
	}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// IDSource hands out trace and span IDs from a splitmix64 stream. A
// non-zero seed gives a fully deterministic ID sequence (golden tests
// stay byte-stable); seed zero draws a random seed once at
// construction. Safe for concurrent use.
type IDSource struct {
	mu    sync.Mutex
	state uint64
}

// NewIDSource returns an ID source. Seed zero means "seed randomly".
func NewIDSource(seed uint64) *IDSource {
	if seed == 0 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			seed = binary.LittleEndian.Uint64(b[:])
		}
		if seed == 0 {
			seed = 0x9e3779b97f4a7c15
		}
	}
	return &IDSource{state: seed}
}

// next advances the splitmix64 stream, never returning zero.
func (s *IDSource) next() uint64 {
	for {
		s.state += 0x9e3779b97f4a7c15
		z := s.state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// TraceID draws a fresh 128-bit trace ID.
func (s *IDSource) TraceID() TraceID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], s.next())
	binary.BigEndian.PutUint64(id[8:], s.next())
	return id
}

// SpanID draws a fresh 64-bit span ID.
func (s *IDSource) SpanID() SpanID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var id SpanID
	binary.BigEndian.PutUint64(id[:], s.next())
	return id
}

// NewRoot draws a fresh root span context (new trace, new span).
func (s *IDSource) NewRoot() SpanContext {
	return SpanContext{TraceID: s.TraceID(), SpanID: s.SpanID()}
}

// ctxKeySpanContext carries an explicit SpanContext — the remote
// parent a client wants stamped on outgoing requests — independent of
// any live span.
type ctxKeySpanContext struct{}

// ContextWithSpanContext returns ctx carrying sc. The client transport
// reads it back with SpanContextFromContext to stamp traceparent on
// outgoing requests. An invalid sc returns ctx unchanged.
func ContextWithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKeySpanContext{}, sc)
}

// SpanContextFromContext returns the span context carried by ctx: the
// currently-open span's context when a traced span is active (so
// outgoing requests parent under the span that issued them), else any
// explicitly-installed value, else the invalid zero SpanContext.
func SpanContextFromContext(ctx context.Context) SpanContext {
	if sp, _ := ctx.Value(ctxKeySpan{}).(*Span); sp != nil && sp.sc.Valid() {
		return sp.sc
	}
	sc, _ := ctx.Value(ctxKeySpanContext{}).(SpanContext)
	return sc
}

// ContextWithSpan returns ctx carrying sp as the current span, so
// subsequent Trace calls nest under it and SpanContextFromContext
// reports its identity. The serving daemon uses it to hang the synth
// phase tree under the per-job request span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKeySpan{}, sp)
}
