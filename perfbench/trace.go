package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	pcc "repro"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent indexes the causing span in the same
// tracer, -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Tag    string `json:"tag,omitempty"`    // posture of a delivery: bare or served
	Pkts   int    `json:"pkts,omitempty"`   // packets a delivery or run covered
	Cycles int64  `json:"cycles,omitempty"` // simulated cycles a run retired
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps one worker's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	base  time.Time
	spans []span
	// stats holds the ValidationStats of every shadow validation.
	stats []*pcc.ValidationStats
}

func (t *tracer) start(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.base))})
	return len(t.spans) - 1
}

func (t *tracer) stop(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.base))
	}
}

// at returns span i for annotation; only call it on a non-nil tracer.
func (t *tracer) at(i int) *span { return &t.spans[i] }

// byOp groups a tracer's spans by operation, keeping each span's index
// so parents resolve.
func (t *tracer) byOp() map[int64][]int {
	ops := map[int64][]int{}
	for i := range t.spans {
		ops[t.spans[i].Op] = append(ops[t.spans[i].Op], i)
	}
	return ops
}

// selfTime returns, for every operation whose root is named root, the
// duration of its child named layer minus the durations of the root's
// other children: the benchmark repeats on the same input each call the
// layer makes into a lower layer, so the difference is the layer's own
// time.
func selfTimes(ts []*tracer, root, layer string) []float64 {
	var out []float64
	for _, t := range ts {
		for _, idx := range t.byOp() {
			r := idx[0]
			if t.spans[r].Name != root || t.spans[r].Parent != -1 {
				continue
			}
			var self time.Duration
			found := false
			for _, i := range idx[1:] {
				s := &t.spans[i]
				if s.Parent != r {
					continue
				}
				if s.Name == layer && !found {
					self += s.dur()
					found = true
				} else {
					self -= s.dur()
				}
			}
			if found {
				out = append(out, float64(self))
			}
		}
	}
	return out
}

// durations returns every span named name, in nanoseconds, optionally
// only those carrying tag.
func durations(ts []*tracer, name, tag string) (ns []float64, pkts int, cycles int64) {
	for _, t := range ts {
		for i := range t.spans {
			s := &t.spans[i]
			if s.Name == name && (tag == "" || s.Tag == tag) {
				ns = append(ns, float64(s.dur()))
				pkts += s.Pkts
				cycles += s.Cycles
			}
		}
	}
	return ns, pkts, cycles
}

// writeSpans writes every span as one JSON line to path.
func writeSpans(path string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
