package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public function (the program itself is not
// instrumented). Times are nanoseconds since the run started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so the untraced run pays one branch per call site.
type tracer struct {
	on  bool
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string, on bool) *tracer {
	return &tracer{on: on, run: run, t0: time.Now()}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, Run: t.run})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if !t.on || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// timed runs f inside a span and returns its wall time. The time is
// measured whether or not tracing is on.
func (t *tracer) timed(name string, parent int, f func(id int) error) (time.Duration, error) {
	id := t.begin(name, parent)
	start := time.Now()
	err := f(id)
	d := time.Since(start)
	t.end(id)
	return d, err
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval its child spans cover (children of one parent may
// overlap when they run concurrently, so their union is subtracted).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, hi int64
		hi = s.Start
		for _, k := range kids {
			lo := max(k.Start, hi)
			if k.End > lo {
				covered += k.End - lo
				hi = k.End
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

func (t *tracer) printSelfTimes() {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("layer self time (span duration minus child spans):")
	for _, n := range names {
		note("self %-40s %10.3f ms", n, float64(self[n].Microseconds())/1000)
	}
}
