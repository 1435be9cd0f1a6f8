package main

//simcheck:allow-file nodeterm benchmark spans time host execution; simulations stay seeded

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one host-time interval recorded around a call into a layer:
// workload → experiment or point → probe. Parent 0 means a root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (0 when disabled).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// now and since are the benchmark's only clock reads outside spans.
func now() time.Time { return time.Now() }

func since(t time.Time) time.Duration { return time.Since(t) }
