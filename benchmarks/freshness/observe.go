package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// visibleTimeout is how long a commit may take to show at the observation
// point before it counts as failed.
const visibleTimeout = 10 * time.Second

// pollPause is how long the reading observer waits before it asks again
// for a state that was not yet visible.
const pollPause = time.Millisecond

// sample is one freshness measurement: the commit it is about and when its
// effect was seen.
type sample struct {
	CSN  int64
	Seen time.Time
	OK   bool
}

// observer watches the workload's observation point.
type observer interface {
	// acked tells the observer a commit was acknowledged with csn.
	acked(csn int64)
	// visibleAt returns when csn (or, for a reading observer, a state at
	// or after csn) was first seen, blocking up to timeout.
	visibleAt(csn int64, timeout time.Duration) (time.Time, bool)
	// samples returns the measurements taken since the last call.
	samples() []sample
	// reads returns how many read requests the observer made, which count
	// as attempted operations beside the commits; their failures come
	// back through samples.
	reads() int64
	stop() error
}

// feedObserver subscribes to GET /v1/deltas of the observed view: one
// passive stream, which is the observation point itself. The first timed
// delta row carrying a CSN is that commit's visibility event.
type feedObserver struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	seenAt map[int64]time.Time // when each CSN's first delta row arrived
	asked  []int64             // acknowledged CSNs not yet handed out as samples
	err    error
}

// newFeedObserver subscribes strictly after CSN base.
func newFeedObserver(url, view string, base int64) (*feedObserver, error) {
	ctx, cancel := context.WithCancel(context.Background())
	o := &feedObserver{seenAt: map[int64]time.Time{}, cancel: cancel, done: make(chan struct{})}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/deltas?view=%s&from=%d", url, view, base), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe to %s: %s", view, resp.Status)
	}
	go func() {
		defer close(o.done)
		defer resp.Body.Close()
		err := o.read(bufio.NewReaderSize(resp.Body, 256<<10))
		if ctx.Err() == nil {
			o.mu.Lock()
			o.err = fmt.Errorf("changefeed ended: %w", err)
			o.mu.Unlock()
		}
	}()
	return o, nil
}

// read consumes NDJSON delta events. Only the CSN at the head of each line
// is parsed: a dimension-row replace on a heavy key emits thousands of
// lines and the generator shares its cores with the nodes.
func (o *feedObserver) read(r *bufio.Reader) error {
	prev := int64(0)
	for {
		line, err := r.ReadSlice('\n')
		for errors.Is(err, bufio.ErrBufferFull) {
			_, err = r.ReadSlice('\n') // skip the tail of an overlong line
		}
		if err != nil {
			return err
		}
		if len(line) > 48 {
			line = line[:48]
		}
		csn := jsonInt(line, "csn")
		if csn == prev {
			continue
		}
		prev = csn
		now := time.Now()
		o.mu.Lock()
		if _, dup := o.seenAt[csn]; !dup {
			o.seenAt[csn] = now
		}
		o.mu.Unlock()
	}
}

func (o *feedObserver) acked(csn int64) {
	o.mu.Lock()
	o.asked = append(o.asked, csn)
	o.mu.Unlock()
}

func (o *feedObserver) seen(csn int64) (time.Time, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t, ok := o.seenAt[csn]
	return t, ok
}

func (o *feedObserver) visibleAt(csn int64, timeout time.Duration) (time.Time, bool) {
	deadline := time.Now().Add(timeout)
	for {
		if t, ok := o.seen(csn); ok {
			return t, true
		}
		if time.Now().After(deadline) {
			return time.Time{}, false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// samples returns one measurement per acknowledged commit. Call it after
// waiting for the newest of them, or the stragglers count as never seen.
func (o *feedObserver) samples() []sample {
	o.mu.Lock()
	asked := o.asked
	o.asked = nil
	o.mu.Unlock()
	out := make([]sample, len(asked))
	for i, csn := range asked {
		t, ok := o.seen(csn)
		out[i] = sample{CSN: csn, Seen: t, OK: ok}
	}
	return out
}

func (o *feedObserver) reads() int64 { return 0 }

func (o *feedObserver) stop() error {
	o.cancel()
	<-o.done
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// readObserver is the reading client of cascade-read: on its own
// connection it takes the newest acknowledged CSN and reads the observed
// view until a response reflects that commit. The response that does is
// one freshness sample for the commit.
//
// It reads the view's latest state and checks the asOf the server reports,
// not {asOf: csn, wait: true}: with FoldDeltas the background fold moves a
// view's image past an acknowledged CSN within milliseconds, after which
// the server answers a read as of that CSN with 400 "derived state pruned
// below requested time" (README, gaps found).
type readObserver struct {
	c      *conn
	view   string
	newest atomic.Int64
	cancel context.CancelFunc
	done   chan struct{}

	mu    sync.Mutex
	taken []sample
	last  sample // the newest read that reflected its commit, for visibleAt
	sent  int64  // requests sent
	hits  int64  // responses that reflected the commit asked about
	rows  int64  // rows returned by those, summed
}

func newReadObserver(url, view string) *readObserver {
	ctx, cancel := context.WithCancel(context.Background())
	o := &readObserver{c: newConn(url), view: view, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(o.done)
		body := []byte(fmt.Sprintf(`{"view":%q}`, o.view))
		last := int64(0)
		for ctx.Err() == nil {
			csn := o.newest.Load()
			if csn <= last {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			last = csn
			for asOf := int64(0); asOf < csn && ctx.Err() == nil; {
				data, ok := o.c.post("/v1/materialize", body)
				asOf = jsonInt(data[:min(len(data), 64)], "asOf")
				s := sample{CSN: csn, Seen: time.Now(), OK: ok}
				o.mu.Lock()
				o.sent++
				switch {
				case !ok:
					o.taken = append(o.taken, s)
				case asOf >= csn:
					o.rows += int64(bytes.Count(data, []byte("],[")) + 1)
					o.hits++
					o.last = s
					o.taken = append(o.taken, s)
				}
				o.mu.Unlock()
				if !ok {
					break
				}
				if asOf < csn {
					// not there yet: ask again shortly, as a client would,
					// and leave the node's cores to maintenance meanwhile
					time.Sleep(pollPause)
				}
			}
		}
	}()
	return o
}

func (o *readObserver) acked(csn int64) {
	for {
		cur := o.newest.Load()
		if csn <= cur || o.newest.CompareAndSwap(cur, csn) {
			return
		}
	}
}

func (o *readObserver) visibleAt(csn int64, timeout time.Duration) (time.Time, bool) {
	deadline := time.Now().Add(timeout)
	for {
		o.mu.Lock()
		last := o.last
		o.mu.Unlock()
		if last.CSN >= csn {
			return last.Seen, true
		}
		if time.Now().After(deadline) {
			return time.Time{}, false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (o *readObserver) samples() []sample {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := o.taken
	o.taken = nil
	return out
}

func (o *readObserver) reads() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sent
}

func (o *readObserver) stop() error {
	o.cancel()
	<-o.done
	o.c.close()
	return nil
}
