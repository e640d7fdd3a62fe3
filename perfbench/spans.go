package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"repro/cdcs"
)

// span is one timed region of a traced run: either the benchmark's own
// span around a public call, or one of the program's spans grafted
// under it. Spans stay in memory until the run ends.
type span struct {
	Name     string
	PID      int // pidBench or pidDaemon
	Start    time.Duration
	Dur      time.Duration
	Children []*span
}

const (
	pidBench  = 1
	pidDaemon = 2
)

// recorder collects the span forest of a traced run, one root per op.
type recorder struct {
	epoch time.Time
	roots []*span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open starts a benchmark span at the current time.
func (r *recorder) open(name string) *span {
	return &span{Name: name, PID: pidBench, Start: time.Since(r.epoch)}
}

// close ends sp now and, when parent is non-nil, attaches it there.
func (r *recorder) close(sp, parent *span) {
	sp.Dur = time.Since(r.epoch) - sp.Start
	if parent != nil {
		parent.Children = append(parent.Children, sp)
	}
}

// add files a finished op's span tree.
func (r *recorder) add(root *span) { r.roots = append(r.roots, root) }

// graft converts the program's span forest into recorder spans that
// start at the given offset: the program's clock is aligned so its
// first span begins where the enclosing benchmark span does.
func graft(parent *span, roots []*cdcs.TraceSpan, pid int, offset time.Duration) {
	for _, ps := range roots {
		sp := &span{
			Name:  ps.Name,
			PID:   pid,
			Start: offset + time.Duration(ps.StartUs)*time.Microsecond,
			Dur:   time.Duration(ps.DurUs) * time.Microsecond,
		}
		graft(sp, ps.Children, pid, offset)
		parent.Children = append(parent.Children, sp)
	}
}

// selfUs is a span's duration minus the part of it its children
// cover, in microseconds.
func selfUs(sp *cdcs.TraceSpan) int64 {
	type iv struct{ a, b int64 }
	lo, hi := sp.StartUs, sp.StartUs+sp.DurUs
	var ivs []iv
	for _, c := range sp.Children {
		a, b := max(c.StartUs, lo), min(c.StartUs+c.DurUs, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return sp.DurUs - covered
}

// walk visits every span of a program forest.
func walk(roots []*cdcs.TraceSpan, visit func(*cdcs.TraceSpan)) {
	for _, sp := range roots {
		visit(sp)
		walk(sp.Children, visit)
	}
}

// writePerfetto writes the forest as a Chrome trace_event file, which
// ui.perfetto.dev and chrome://tracing load: one complete ("X") event
// per span, the benchmark and the daemon as separate processes.
func (r *recorder) writePerfetto(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{
		{Name: "process_name", Ph: "M", PID: pidBench, Args: map[string]any{"name": "perfbench"}},
		{Name: "process_name", Ph: "M", PID: pidDaemon, Args: map[string]any{"name": "cdcsd"}},
	}
	var emit func(sp *span)
	emit = func(sp *span) {
		events = append(events, event{
			Name: sp.Name, Ph: "X", PID: sp.PID, TID: 1,
			Ts:  float64(sp.Start) / float64(time.Microsecond),
			Dur: float64(sp.Dur) / float64(time.Microsecond),
		})
		for _, c := range sp.Children {
			emit(c)
		}
	}
	for _, root := range r.roots {
		emit(root)
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
