package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	rollingjoin "repro"
)

// driver is the traced run's maintenance loop. The views are defined
// Manual, so every propagation, apply and fold step happens here, between
// two clock readings.
//
// On a leader it runs in lockstep with the single load connection. Every
// transaction of the product mints a CSN, the propagation queries' own
// included, so if commits and maintenance overlapped, which client commits
// fall into which propagation cell would depend on timing, and with it
// every query count. Instead the driver lets commits in until a whole cell
// of the workload's propagation interval lies above the high-water mark,
// closes the gate, advances cell by cell, and opens it again. Cell
// boundaries then follow from the request sequence alone and the counts of
// a traced run repeat exactly; what the lockstep costs in throughput is
// reported as trace_overhead_share.
type driver struct {
	n        *node
	follower bool
	cell     int64

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool      // gate closed: commits wait
	ackedAt time.Time // when the newest client commit was acknowledged
	flush   bool      // flushTo wants partial cells processed too
	hwm     int64     // every relation has reached this CSN
	err     error
	done    bool
}

func newDriver(n *node, follower bool) *driver {
	d := &driver{n: n, follower: follower, cell: int64(n.w.interval())}
	d.cond = sync.NewCond(&d.mu)
	d.hwm = int64(n.rels.all[0].HWM())
	return d
}

// wake wakes every waiter on cond. Taking the lock first closes the gap
// between a waiter's last look at its condition and its Wait.
func (d *driver) wake() {
	d.mu.Lock()
	d.mu.Unlock() //nolint:staticcheck // empty critical section orders the broadcast after the waiter's check
	d.cond.Broadcast()
}

// enter blocks a client commit while the gate is closed.
func (d *driver) enter() {
	d.mu.Lock()
	for d.closed && !d.done {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// ack is the commit middleware's report of an acknowledged commit. It runs
// before the response leaves the server, so closing the gate here keeps
// the connection's next commit out.
func (d *driver) ack(csn int64, at time.Time) {
	d.mu.Lock()
	d.ackedAt = at
	if csn >= d.hwm+d.cell {
		d.closed = true
	}
	d.mu.Unlock()
	d.cond.Broadcast()
}

// flushTo makes the driver process everything committed so far, partial
// cells too, and waits until it has reached csn and is idle again.
func (d *driver) flushTo(ctx context.Context, csn rollingjoin.CSN) error {
	stop := context.AfterFunc(ctx, d.wake)
	defer stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.follower {
		d.flush, d.closed = true, true
		d.cond.Broadcast()
	}
	for (d.hwm < int64(csn) || d.closed) && d.err == nil && !d.done && ctx.Err() == nil {
		d.cond.Wait()
	}
	switch {
	case d.err != nil:
		return d.err
	case d.hwm < int64(csn):
		return fmt.Errorf("driver stopped at CSN %d, want %d", d.hwm, csn)
	}
	return nil
}

func (d *driver) run(ctx context.Context) {
	stop := context.AfterFunc(ctx, d.wake)
	defer stop()
	var err error
	if d.follower {
		err = d.runFollower(ctx)
	} else {
		err = d.runLeader(ctx)
	}
	d.mu.Lock()
	d.err, d.done = err, true
	d.mu.Unlock()
	d.cond.Broadcast()
}

// foldEveryCells is the traced driver's fold cadence.
const foldEveryCells = 64

func (d *driver) runLeader(ctx context.Context) error {
	cells := 0
	for {
		d.mu.Lock()
		for !d.closed && ctx.Err() == nil {
			d.cond.Wait()
		}
		flush, ackedAt := d.flush, d.ackedAt
		d.mu.Unlock()
		if ctx.Err() != nil {
			return nil
		}
		// The gate is closed: nothing but this loop mints CSNs now.
		for {
			last := int64(d.n.db.LastCSN())
			target := min(d.hwm+d.cell, last)
			if target <= d.hwm || (!flush && target < d.hwm+d.cell) {
				break
			}
			// capture.wait: from the newest commit's acknowledgement (or
			// from now, once that is past) until log capture has put every
			// change up to target into the delta tables.
			start := time.Now()
			if ackedAt.After(start) {
				start = ackedAt
			}
			if err := d.n.db.Source().WaitProgress(rollingjoin.CSN(target)); err != nil {
				return fmt.Errorf("wait for capture of CSN %d: %w", target, err)
			}
			d.n.tr.add("capture.wait", start, span{CSNLo: d.hwm, CSN: target})
			if err := d.advance(target); err != nil {
				return err
			}
			if cells++; d.n.w.Fold && cells%foldEveryCells == 0 {
				start := time.Now()
				if err := d.n.db.Fold(); err != nil {
					return fmt.Errorf("fold: %w", err)
				}
				d.n.tr.add("tier.fold", start, span{CSN: target})
			}
		}
		d.mu.Lock()
		d.closed, d.flush = false, false
		d.mu.Unlock()
		d.cond.Broadcast()
	}
}

// runFollower steps a follower's views as replay makes commits available.
// The workloads that run a follower use interval 1, so each cell is one
// CSN however the shipped chunks group them.
func (d *driver) runFollower(ctx context.Context) error {
	waiter, ok := d.n.db.Source().(interface {
		WaitProgressContext(context.Context, rollingjoin.CSN) error
	})
	if !ok {
		return errors.New("follower capture source cannot wait with a context")
	}
	for {
		if err := waiter.WaitProgressContext(ctx, rollingjoin.CSN(d.hwm+1)); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		// follower.replay ends here for every commit up to Progress.
		progress := int64(d.n.db.Source().Progress())
		d.n.tr.add("follower.replayed", time.Now(), span{CSNLo: d.hwm, CSN: progress})
		if err := d.advance(progress); err != nil {
			return err
		}
	}
}

// advance propagates every relation to target in cascade order, then
// applies, and publishes the new high-water mark.
func (d *driver) advance(target int64) error {
	t := rollingjoin.CSN(target)
	start := time.Now()
	for _, m := range d.n.rels.all {
		for m.HWM() < t {
			if err := m.PropagateStep(); err != nil {
				return fmt.Errorf("propagate %s to %d: %w", m.Name(), target, err)
			}
		}
	}
	d.n.tr.add("core.propagate", start, span{CSNLo: d.hwm, CSN: target})
	start = time.Now()
	for _, m := range d.n.rels.all {
		if _, err := m.Refresh(); err != nil {
			return fmt.Errorf("apply %s: %w", m.Name(), err)
		}
	}
	d.n.tr.add("core.apply", start, span{CSNLo: d.hwm, CSN: target})
	d.mu.Lock()
	d.hwm = target
	d.mu.Unlock()
	d.cond.Broadcast()
	return nil
}
