package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Start and End are nanoseconds since the tracer was created; Parent
// indexes the span that caused this one (-1 for a query's root span); spans
// of one query share Query.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Query  uint64 `json:"query"`
}

// tracer keeps spans in memory. A nil tracer records nothing and reads no
// clock, which is how the spans-off replay is run.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, query uint64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Query: query})
	t.stack = append(t.stack, i)
	t.spans[i].Start = int64(time.Since(t.t0))
	return i
}

// end closes the innermost open span, which must be i.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTime is the aggregate of one span name.
type layerTime struct {
	Count int
	Total time.Duration // sum of durations
	Self  time.Duration // sum of self times
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may overlap each other or stick
// out past the parent; covered time is the union of the child intervals
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[int32(i)]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// byLayer aggregates spans by name.
func byLayer(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := make(map[string]layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(self[i])
		out[s.Name] = lt
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
