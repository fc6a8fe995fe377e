package main

import "time"

// span is one timed interval at a layer boundary. Spans nest by
// Parent (0 = no parent) and share the workload name as their
// request identifier; Start and End are host seconds since the
// tracer's epoch.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
}

// tracer records spans in memory from the single goroutine that
// drives a traced pass; the harness writes them out when the
// benchmark ends. A nil tracer records nothing, which is how the
// untraced end-to-end passes share code with the traced one.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int // stack of open span IDs
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: now()}
}

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

// end closes span id (and any span left open inside it).
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	at := since(t.epoch)
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top-1].End = at
		if top == id {
			return
		}
	}
}

// selfTimes returns, per span name, the time spent in spans of that
// name minus the time their direct children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int]float64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - children[s.ID]
	}
	return self
}

// rootTime is the total duration of the parentless spans.
func rootTime(spans []span) float64 {
	total := 0.0
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.End - s.Start
		}
	}
	return total
}
