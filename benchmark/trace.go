package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's own calls into the
// program's layers. Spans are kept in memory and written out once, at
// the end of the traced window. A nil *tracer records nothing, so the
// untraced window runs the same code with tracing off.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []spanRecord
}

// spanRecord is one finished span. Op is shared by every span of one
// benchmark operation (the root span's ID).
type spanRecord struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// span is an open span; end records it.
type span struct {
	t      *tracer
	id     int64
	parent int64
	op     int64
	name   string
	layer  string
	start  time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens the root span of a new operation.
func (t *tracer) root(name, layer string) *span {
	if t == nil {
		return nil
	}
	id := t.next.Add(1)
	return &span{t: t, id: id, op: id, name: name, layer: layer, start: time.Now()}
}

// child opens a span caused by s.
func (s *span) child(name, layer string) *span {
	if s == nil {
		return nil
	}
	return &span{t: s.t, id: s.t.next.Add(1), parent: s.id, op: s.op, name: name, layer: layer, start: time.Now()}
}

// end closes the span and returns its duration (0 when tracing is off).
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	rec := spanRecord{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name, Layer: s.layer,
		StartNs: int64(s.start.Sub(s.t.t0)), EndNs: int64(now.Sub(s.t.t0)),
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, rec)
	s.t.mu.Unlock()
	return now.Sub(s.start)
}

// selfTimes returns each layer's self time: the sum over its spans of
// the span's duration minus the part of it that child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	spans := append([]spanRecord(nil), t.spans...)
	t.mu.Unlock()
	kids := make(map[int64][]spanRecord)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := coveredNs(s, kids[s.ID])
		out[s.Layer] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// coveredNs returns how much of s's interval its children's union
// covers (children of one span may overlap when they run concurrently).
func coveredNs(s spanRecord, kids []spanRecord) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		a, b := max(k.StartNs, s.StartNs), min(k.EndNs, s.EndNs)
		if b <= a {
			continue
		}
		if a > curE {
			total += curE - curS
			curS, curE = a, b
		} else if b > curE {
			curE = b
		}
	}
	total += curE - curS
	return total
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// reportSelfTimes prints the per-layer self-time table of a traced
// window and writes the span file next to the benchmark's build output.
func (r *run) reportSelfTimes(t *tracer) {
	self := t.selfTimes()
	var total time.Duration
	layers := make([]string, 0, len(self))
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Strings(layers)
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(self[l]) / float64(total)
		}
		r.say("self  %-12s %12.3f ms  %5.1f%%", l, ms(self[l]), 100*share)
	}
	t.mu.Lock()
	n := len(t.spans)
	t.mu.Unlock()
	path := fmt.Sprintf("%s/../trace-%s-%d.json", r.opts.scratch, r.opts.workload, r.opts.seed)
	if err := t.write(path); err != nil {
		r.say("trace file not written: %v", err)
		return
	}
	r.say("spans %d written to .bench_build/trace-%s-%d.json", n, r.opts.workload, r.opts.seed)
}

// compareWindows prints, for each end-to-end metric measured in two
// windows a and b, both values and b's difference from a.
func (r *run) compareWindows(label, aName string, a map[string]float64, bName string, b map[string]float64) {
	for _, d := range e2eCatalog {
		av, okA := a[d.name]
		bv, okB := b[d.name]
		if !okA || !okB || av == 0 {
			continue
		}
		r.say("%s %-18s %s %.4f %s %.4f %s (%+.1f%%)", label, d.name, aName, av, bName, bv, d.unit, 100*(bv-av)/av)
	}
}
