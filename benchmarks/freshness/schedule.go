package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// burst describes an on/off arrival pattern: commits arrive only during
// the first On of every On+Off period, at a rate that keeps the workload's
// mean rate. A zero burst is a steady stream.
type burst struct {
	On, Off time.Duration
}

// dueTimes returns the offsets from the phase start at which the commits of
// an open-loop phase of length d are due: evenly spaced at rate per second,
// or, with a burst, evenly spaced inside each on-period at
// rate·(On+Off)/On so that the mean over a whole period is still rate.
func dueTimes(rate float64, b burst, d time.Duration) []time.Duration {
	if b.On <= 0 {
		n := int(rate * d.Seconds())
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(float64(i) / rate * float64(time.Second))
		}
		return out
	}
	period := b.On + b.Off
	perBurst := int(rate*period.Seconds() + 0.5)
	gap := b.On / time.Duration(perBurst)
	var out []time.Duration
	for start := time.Duration(0); start+b.On <= d; start += period {
		for i := 0; i < perBurst; i++ {
			out = append(out, start+time.Duration(i)*gap)
		}
	}
	return out
}

// result is the outcome of one scheduled operation.
type result struct {
	Due  time.Time // when the operation was due; the phase's start in a closed loop
	Sent time.Time
	CSN  int64 // commit sequence number acked; 0 when the operation failed
	OK   bool
}

// lateness summarises how far behind its schedule an open-loop generator ran.
type lateness struct {
	MaxMs, P99Ms float64
}

// runOpenLoop issues one operation per entry of due, on conns goroutines,
// each taking the next entry when it is free and sleeping until that entry
// is due. The schedule never slows down when the system does: an entry
// whose turn comes late is sent at once and still timed from its due time.
// now and sleep are injectable for tests.
func runOpenLoop(start time.Time, due []time.Duration, conns int,
	do func(conn, i int) (csn int64, ok bool),
	now func() time.Time, sleep func(time.Duration)) []result {
	res := make([]result, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if d := at.Sub(now()); d > 0 {
					sleep(d)
				}
				sent := now()
				csn, ok := do(c, i)
				res[i] = result{Due: at, Sent: sent, CSN: csn, OK: ok}
			}
		}(c)
	}
	wg.Wait()
	return res
}

// runClosedLoop issues n operations on conns goroutines, each sending its
// next operation as soon as the previous one is acknowledged: an open loop
// in which everything is due at once.
func runClosedLoop(n, conns int, do func(conn, i int) (csn int64, ok bool)) []result {
	return runOpenLoop(time.Now(), make([]time.Duration, n), conns, do, time.Now, time.Sleep)
}

// latenessOf reports how late the generator sent its operations.
func latenessOf(res []result) lateness {
	if len(res) == 0 {
		return lateness{}
	}
	late := make([]float64, len(res))
	for i, r := range res {
		if d := r.Sent.Sub(r.Due); d > 0 {
			late[i] = float64(d) / float64(time.Millisecond)
		}
	}
	sort.Float64s(late)
	return lateness{MaxMs: late[len(late)-1], P99Ms: percentile(late, 0.99)}
}
