package main

import (
	"bytes"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/wal"
)

// span is one timed interval at a layer boundary. Spans are recorded only
// in the benchmark's own files, around calls into the product's public
// functions, kept in memory and written out when the run ends.
type span struct {
	Name string `json:"name"`
	Node string `json:"node"`
	// CSN is the commit the span belongs to; a span covering several
	// commits carries the last one and CSNLo, the exclusive lower end.
	CSN   int64 `json:"csn"`
	CSNLo int64 `json:"csn_lo,omitempty"`
	Start int64 `json:"start_ns"` // unix nanoseconds
	End   int64 `json:"end_ns"`
	// Parent is the index, in the written span list, of the span that
	// caused this one; -1 for a root.
	Parent int `json:"parent"`
	// N is a count taken at the same boundary: bytes for wal.append and
	// repl.ship. Off is the log offset reached once those bytes are in,
	// which ties a shipped chunk on the follower to the commits inside it.
	N   int64 `json:"n,omitempty"`
	Off int64 `json:"off,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans. A nil tracer records nothing, which is how
// untraced runs skip every boundary at the cost of one nil check.
type tracer struct {
	node string
	mu   sync.Mutex
	out  []span
}

// add records a span from start to now.
func (t *tracer) add(name string, start time.Time, s span) {
	if t == nil {
		return
	}
	s.Name, s.Node, s.Parent = name, t.node, -1
	s.Start, s.End = start.UnixNano(), time.Now().UnixNano()
	t.mu.Lock()
	t.out = append(t.out, s)
	t.mu.Unlock()
}

func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.out...)
}

// parentNames are the spans that can cause log writes; a wal.append or
// wal.sync belongs to whichever of them contains it in time. The traced
// run has one load connection in lockstep with one maintenance driver, so
// these never overlap on a node and containment is exact.
var parentNames = map[string]bool{
	"repl.commit": true, "core.propagate": true, "core.apply": true, "tier.fold": true,
}

// linkParents sets Parent of every wal.* span to the same-node span of
// parentNames that contains it, and hands a commit's CSN down to it.
func linkParents(spans []span) {
	parents := map[string][]int{} // node -> parent candidates by start time
	for i, s := range spans {
		if parentNames[s.Name] {
			parents[s.Node] = append(parents[s.Node], i)
		}
	}
	for _, idx := range parents {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for i := range spans {
		if spans[i].Name != "wal.append" && spans[i].Name != "wal.sync" {
			continue
		}
		cand := parents[spans[i].Node]
		// last candidate starting at or before the child
		j := sort.Search(len(cand), func(k int) bool { return spans[cand[k]].Start > spans[i].Start }) - 1
		if j >= 0 && spans[cand[j]].End >= spans[i].End {
			spans[i].Parent = cand[j]
			if spans[cand[j]].Name == "repl.commit" {
				spans[i].CSN = spans[cand[j]].CSN
			}
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children are not counted twice).
// linkParents must have run.
func selfTimes(spans []span) []time.Duration {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < upTo {
				lo = upTo
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// timingDevice wraps the log device handed to Options.Device and records a
// span around every append and sync, with the bytes appended.
type timingDevice struct {
	wal.Device
	tr *tracer
}

func (d *timingDevice) Append(p []byte) error {
	start := time.Now()
	err := d.Device.Append(p)
	d.tr.add("wal.append", start, span{N: int64(len(p)), Off: d.Device.Size()})
	return err
}

func (d *timingDevice) Sync() error {
	start := time.Now()
	err := d.Device.Sync()
	d.tr.add("wal.sync", start, span{})
	return err
}

// captureWriter keeps the head of a response body so the middleware can
// read the CSN the handler answered with.
type captureWriter struct {
	http.ResponseWriter
	head   [64]byte
	n      int
	status int
}

func (w *captureWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *captureWriter) Write(p []byte) (int, error) {
	if w.n < len(w.head) {
		w.n += copy(w.head[w.n:], p)
	}
	return w.ResponseWriter.Write(p)
}

// jsonInt extracts the integer after `"key":` from the head of a JSON
// object, 0 when absent. It is enough for the two response shapes the
// harness reads ({"csn":N} and {"asOf":N,...}) and for feed lines.
func jsonInt(b []byte, key string) int64 {
	i := bytes.Index(b, []byte(`"`+key+`":`))
	if i < 0 {
		return 0
	}
	var v int64
	for _, c := range b[i+len(key)+3:] {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + int64(c-'0')
	}
	return v
}

// traceHTTP wraps the repl handler: a repl.commit span around every
// POST /v1/commit and a repl.materialize span around every
// POST /v1/materialize, each identified by the CSN in the response.
// Commits pass the driver's gate first and are reported to it afterwards.
func traceHTTP(next http.Handler, tr *tracer, drv *driver) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var name, key string
		switch r.URL.Path {
		case "/v1/commit":
			name, key = "repl.commit", "csn"
		case "/v1/materialize":
			name, key = "repl.materialize", "asOf"
		default:
			next.ServeHTTP(w, r)
			return
		}
		if name == "repl.commit" {
			drv.enter()
		}
		cw := &captureWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(cw, r)
		if cw.status != http.StatusOK {
			return
		}
		csn := jsonInt(cw.head[:cw.n], key)
		tr.add(name, start, span{CSN: csn})
		if name == "repl.commit" {
			drv.ack(csn, time.Now())
		}
	})
}
