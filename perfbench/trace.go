package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// This file is the benchmark's op-scoped span recorder. Every span carries
// the ID of the op that caused it and the ID of its parent span, so one
// op's calls into each layer can be followed and their self times summed.
// Spans stay in memory and are written as JSONL when the run ends.

// span is one timed call into a layer.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the op's root span
	Layer  string `json:"layer"`
	Key    string `json:"key,omitempty"` // root spans: what the op worked on
	Start  int64  `json:"start_ns"`      // since the recorder's epoch
	End    int64  `json:"end_ns"`
	// Calls > 0 marks an aggregate span: that many separate calls, spread
	// between Start and End, whose summed time is Busy. Aggregates stand
	// for calls made from inside their parent's interval, never from inside
	// a sibling's, so their busy time adds to the parent's covered time.
	Calls int   `json:"calls,omitempty"`
	Busy  int64 `json:"busy_ns,omitempty"`
}

// recorder collects the spans of every op of a traced run. A nil recorder
// records nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// opTrace is the span list of one op, owned by the goroutine running it.
type opTrace struct {
	rec   *recorder
	spans []span
}

// begin opens an op working on key, and its root span; nil on a nil
// recorder.
func (r *recorder) begin(op int64, key string) *opTrace {
	if r == nil {
		return nil
	}
	t := &opTrace{rec: r, spans: make([]span, 1, 6)}
	t.spans[0] = span{Op: op, ID: 0, Parent: -1, Layer: "bench.op", Key: key, Start: r.now()}
	return t
}

// start opens a child span of parent and returns its ID.
func (t *opTrace) start(layer string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.spans[0].Op, ID: id, Parent: parent, Layer: layer, Start: t.rec.now()})
	return id
}

// stop closes span id.
func (t *opTrace) stop(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.rec.now()
}

// aggregate adds one span standing for calls separate calls under parent
// that took busy in total, the first starting at first and the last ending
// at last.
func (t *opTrace) aggregate(layer string, parent int, first, last time.Time, busy time.Duration, calls int) {
	if t == nil || calls == 0 {
		return
	}
	t.spans = append(t.spans, span{
		Op: t.spans[0].Op, ID: len(t.spans), Parent: parent, Layer: layer,
		Start: int64(first.Sub(t.rec.epoch)), End: int64(last.Sub(t.rec.epoch)),
		Calls: calls, Busy: int64(busy),
	})
}

// finish closes the root span and hands the op's spans to the recorder.
func (t *opTrace) finish() {
	if t == nil {
		return
	}
	t.spans[0].End = t.rec.now()
	t.rec.mu.Lock()
	t.rec.spans = append(t.rec.spans, t.spans...)
	t.rec.mu.Unlock()
}

// all returns every recorded span.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every recorded span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.all() {
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

// selfTimes sums, per layer, each span's duration minus the part of it its
// children cover. Children may overlap one another; the covered part is the
// union of their intervals, clipped to the parent, plus the busy time of
// aggregate children.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct {
		op int64
		id int
	}
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			k := key{s.Op, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Calls > 0 {
			out[s.Layer] += time.Duration(s.Busy)
			continue
		}
		covered := int64(0)
		var ivs [][2]int64
		for _, c := range children[key{s.Op, s.ID}] {
			if c.Calls > 0 {
				covered += c.Busy
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		covered += unionLen(ivs)
		out[s.Layer] += time.Duration(max(s.End-s.Start-covered, 0))
	}
	return out
}

// unionLen is the total length covered by a set of half-open intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, curLo, curHi := int64(0), int64(0), int64(-1)
	for _, iv := range ivs {
		if iv[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = iv[0], iv[1]
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// opWall sums the root spans' durations: the op wall time the layer self
// times must add up to.
func opWall(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}
