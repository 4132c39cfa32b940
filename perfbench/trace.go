package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request, set or replicate share op; parent is the id of the enclosing span
// in the same worker's log, -1 for a root.
type span struct {
	Name    string `json:"name"`
	Worker  int    `json:"worker"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// tracer is one goroutine's span log. A nil *tracer records nothing, so
// the untraced runs pay only a nil check at each boundary.
type tracer struct {
	base   time.Time
	worker int
	spans  []span
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Worker: t.worker, ID: len(t.spans), Parent: parent, Op: op,
		StartNs: int64(time.Since(t.base)),
	})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.base))
}

// record logs a span whose start and end the caller measured itself.
func (t *tracer) record(name string, parent int, op int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Worker: t.worker, ID: len(t.spans), Parent: parent, Op: op,
		StartNs: int64(start.Sub(t.base)), EndNs: int64(end.Sub(t.base)),
	})
	return len(t.spans) - 1
}

// spanLog owns the tracers of one traced run. A nil *spanLog hands out
// nil tracers.
type spanLog struct {
	base    time.Time
	tracers []*tracer
}

func newSpanLog(traced bool) *spanLog {
	if !traced {
		return nil
	}
	return &spanLog{base: time.Now()}
}

// tracer returns a new tracer for one goroutine. Call it before starting
// the goroutine that will use it.
func (l *spanLog) tracer() *tracer {
	if l == nil {
		return nil
	}
	t := &tracer{base: l.base, worker: len(l.tracers)}
	l.tracers = append(l.tracers, t)
	return t
}

// selfStat is a span name's summed self time and call count.
type selfStat struct {
	selfNs int64
	calls  int
}

// meanUs is the mean self time per call, in µs.
func (s selfStat) meanUs() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.selfNs) / float64(s.calls) / 1e3
}

// selfTimes sums each span name's self time: its duration minus the part
// its children cover. The benchmark's children run one after another
// inside their parent, so that part is the sum of their durations.
func (l *spanLog) selfTimes() map[string]selfStat {
	out := map[string]selfStat{}
	if l == nil {
		return out
	}
	for _, t := range l.tracers {
		covered := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				covered[s.Parent] += s.EndNs - s.StartNs
			}
		}
		for i, s := range t.spans {
			st := out[s.Name]
			st.selfNs += max(s.EndNs-s.StartNs-covered[i], 0)
			st.calls++
			out[s.Name] = st
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range l.tracers {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
