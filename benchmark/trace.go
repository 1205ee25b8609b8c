package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the harness around
// the call (nothing inside the program is instrumented yet). Parent is the
// id of the span that caused it: an op's parent is its window, a window's
// parent the run. Spans of one request share Req.
type span struct {
	Name    string
	Layer   string
	StartNs int64
	EndNs   int64
	Parent  int64
	Req     int64
}

// maxOpSpans bounds the per-request spans kept in memory (windows and the
// run span are always kept), so a traced run's file stays loadable.
const maxOpSpans = 60000

// tracer holds spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs pay no cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
	// spent is the time the recorder itself consumed: the tracing
	// overhead reported for workloads whose ops are too long to A/B.
	spent time.Duration
}

func newTracer() *tracer { return &tracer{t0: now()} }

// open starts a structural span (run, round, window) and returns its id.
func (t *tracer) open(name, layer string, parent int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, StartNs: since(t.t0).Nanoseconds(), Parent: parent})
	return int64(len(t.spans)) // ids are 1-based; 0 means "no parent"
}

// close ends a span opened with open.
func (t *tracer) close(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNs = since(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// op records one finished call.
func (t *tracer) op(name, layer string, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	b := now()
	t.mu.Lock()
	if t.ops < maxOpSpans {
		t.ops++
		t.spans = append(t.spans, span{
			Name: name, Layer: layer,
			StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
			Parent: parent, Req: req,
		})
	}
	t.spent += since(b)
	t.mu.Unlock()
}

// size returns how many spans are held.
func (t *tracer) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// chromeEvent is one "complete" event of the Chrome trace-event format
// (chrome://tracing, Perfetto): timestamps and durations in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write emits the spans as Chrome-trace JSON, one viewer row per layer.
func (t *tracer) write(path string) (err error) {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	tids := map[string]int{}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		tid, ok := tids[s.Layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.Layer] = tid
		}
		ev := chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"id": i + 1, "parent": s.Parent, "req": s.Req},
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
		w.Write(b)
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}
