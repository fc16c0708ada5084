package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vbuscluster/internal/core"
)

// span is one timed call into a layer. Spans of one job share Job;
// Parent is the ID of the enclosing span (0 at the job's root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Job     int     `json:"job"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer keeps the traced run's spans in memory; write saves them
// once the run has ended, so no file I/O falls inside a timed call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

// add records a finished span and returns its ID.
func (t *tracer) add(job, parent int, name string, start time.Time, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		StartUs: t.us(start), EndUs: t.us(start.Add(d))})
	return id
}

// open reserves a span whose end is set by close; children recorded in
// between can name it as their parent.
func (t *tracer) open(job, parent int, name string) (id int, start time.Time) {
	start = time.Now()
	return t.add(job, parent, name, start, 0), start
}

func (t *tracer) close(id int, start time.Time) time.Duration {
	d := time.Since(start)
	t.mu.Lock()
	t.spans[id-1].EndUs = t.us(start.Add(d))
	t.mu.Unlock()
	return d
}

// passes lays a compile's per-pass wall times (core.PassTrace, the
// vbcc -passes timer) back to back under the compile span, and adds
// each to layer under its module-qualified metric name.
func (t *tracer) passes(job, parent int, start time.Time, pt *core.PassTrace, layer map[string]float64) {
	at := start
	for _, r := range pt.Records {
		name, ok := passLayer[r.Name]
		if !ok {
			name = "core." + r.Name
		}
		t.add(job, parent, name, at, r.Wall)
		layer[name+"_ms"] += ms(r.Wall)
		at = at.Add(r.Wall)
	}
}

// passLayer names each compiler pass after the module that does its
// work: the parser lives in f77, the front-end passes in analysis and
// the staged translation in postpass. A pass missing here is named
// after core, which runs it.
var passLayer = map[string]string{
	"parse":           "f77.parse",
	"inline":          "analysis.inline",
	"const-prop":      "analysis.const-prop",
	"induction":       "analysis.induction",
	"parallel-detect": "analysis.parallel-detect",
	"partition":       "postpass.partition",
	"spmdize":         "postpass.spmdize",
	"scatter-collect": "postpass.scatter-collect",
	"grain-opt":       "postpass.grain-opt",
	"coalesce":        "postpass.coalesce",
	"avpg":            "postpass.avpg",
	"env-gen":         "postpass.env-gen",
	"resilience":      "postpass.resilience",
}

// write saves the spans and the run's metadata as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"metadata": meta, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
