package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval: a root ("setup" or "job") or a public
// call made from this benchmark inside one.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// jobRecord is the counts recorded at a traced job's root span.
type jobRecord struct {
	Span  int   `json:"span"`
	Stats stats `json:"stats"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced run calls the same code.
type tracer struct {
	origin time.Time
	root   int
	Spans  []span      `json:"spans"`
	Jobs   []jobRecord `json:"jobs"`
}

func newTracer() *tracer { return &tracer{origin: time.Now(), root: -1} }

// beginRoot opens a root span; spans begun until endRoot are its
// children.
func (t *tracer) beginRoot(name string) {
	if t == nil {
		return
	}
	t.root = t.begin(name, -1)
}

func (t *tracer) endRoot() {
	if t == nil {
		return
	}
	t.Spans[t.root].End = int64(time.Since(t.origin))
	t.root = -1
}

func (t *tracer) begin(name string, parent int) int {
	t.Spans = append(t.Spans, span{ID: len(t.Spans), Parent: parent, Name: name, Start: int64(time.Since(t.origin))})
	return len(t.Spans) - 1
}

// call runs f inside a span named after the public function it calls.
func (t *tracer) call(name string, f func() error) error {
	if t == nil {
		return f()
	}
	id := t.begin(name, t.root)
	err := f()
	t.Spans[id].End = int64(time.Since(t.origin))
	return err
}

// childTotals returns, for every root span with the given name, the
// summed duration of its children by name.
func (t *tracer) childTotals(root string) []map[string]time.Duration {
	idx := map[int]int{}
	var out []map[string]time.Duration
	for _, s := range t.Spans {
		if s.Parent == -1 && s.Name == root {
			idx[s.ID] = len(out)
			out = append(out, map[string]time.Duration{})
		} else if i, ok := idx[s.Parent]; ok {
			out[i][s.Name] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// medianOf returns the median over roots of the summed time of the
// named children, in milliseconds, and whether any root had one.
func medianOf(totals []map[string]time.Duration, names ...string) (float64, bool) {
	var v []float64
	for _, m := range totals {
		var d time.Duration
		seen := false
		for _, n := range names {
			if x, ok := m[n]; ok {
				d += x
				seen = true
			}
		}
		if seen {
			v = append(v, ms(d))
		}
	}
	if len(v) == 0 {
		return 0, false
	}
	return quantile(v, 0.5), true
}

// write saves the spans and job counts as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics. v must not be empty; it is not modified.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
