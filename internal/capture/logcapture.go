package capture

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/relalg"
	"repro/internal/tuple"
	"repro/internal/wal"
)

type pendingChange struct {
	table string
	row   tuple.Tuple
	count int64
}

// LogCapture is the DPropR analogue: it tails the write-ahead log,
// buffering each transaction's inserts and deletes until the commit record
// arrives, then appends them to the corresponding delta tables stamped with
// the commit CSN. Because commit records appear in the log in CSN order,
// delta tables fill strictly in timestamp order and the progress watermark
// is exact.
type LogCapture struct {
	db     *engine.DB
	reader *wal.Reader
	uow    *UnitOfWork
	track  *progressTracker

	pending map[uint64][]pendingChange

	// applyBase marks replica mode: commits replayed from the (shipped)
	// log also apply their base-table writes via engine.ApplyReplicated
	// before the delta appends, so a follower's heaps advance in leader
	// commit order. On a leader the writer's own transaction already did
	// this and capture only fills delta tables.
	applyBase bool

	// cancel tears down the capture goroutine's blocking wait without
	// closing the log — the shutdown drain uses it so the engine can stay
	// open until every captured frame has been replayed.
	ctx    context.Context
	cancel context.CancelFunc

	wg      sync.WaitGroup
	started atomic.Bool

	rowsCaptured    atomic.Int64
	commitsCaptured atomic.Int64

	errMu sync.Mutex
	err   error
}

// NewLogCapture creates a capture process reading the database's log from
// the beginning.
func NewLogCapture(db *engine.DB) *LogCapture { return NewLogCaptureAt(db, 0, 0) }

// NewLogCaptureAt creates a capture process reading the log from a byte
// offset, with the progress watermark pre-set. Used after a snapshot
// restore: the snapshot already holds delta rows for every commit at or
// below progress, so capture resumes with the log suffix.
func NewLogCaptureAt(db *engine.DB, offset int64, progress relalg.CSN) *LogCapture {
	ctx, cancel := context.WithCancel(context.Background())
	c := &LogCapture{
		db:      db,
		reader:  db.Log().NewReader(offset),
		uow:     NewUnitOfWork(),
		track:   newProgressTracker(),
		pending: make(map[uint64][]pendingChange),
		ctx:     ctx,
		cancel:  cancel,
	}
	c.track.set(progress)
	return c
}

// NewReplicaLogCapture creates a capture process for a replica engine: it
// reads the shipped leader log from the beginning and replays each commit
// fully — base-table writes (at the leader's CSN, via ApplyReplicated)
// first, then the delta-table appends. One replay path rebuilds both heaps
// and deltas, so a restarting follower simply re-runs it over the log it
// already has before tailing for more.
func NewReplicaLogCapture(db *engine.DB) *LogCapture {
	c := NewLogCapture(db)
	c.applyBase = true
	return c
}

// UOW returns the unit-of-work table the capture maintains.
func (c *LogCapture) UOW() *UnitOfWork { return c.uow }

// Progress implements Source.
func (c *LogCapture) Progress() relalg.CSN { return c.track.get() }

// WaitProgress implements Source.
func (c *LogCapture) WaitProgress(csn relalg.CSN) error { return c.track.wait(csn) }

// WaitProgressContext is WaitProgress with cancellation.
func (c *LogCapture) WaitProgressContext(ctx context.Context, csn relalg.CSN) error {
	return c.track.waitCtx(ctx, csn)
}

// OnProgress registers fn to run after every watermark advance (and once
// when capture stops) — the event-driven wakeup hook for the maintenance
// scheduler. fn runs on the capture goroutine and must not block.
func (c *LogCapture) OnProgress(fn func(relalg.CSN)) { c.track.subscribe(fn) }

// RowsCaptured returns the number of delta rows appended so far.
func (c *LogCapture) RowsCaptured() int64 { return c.rowsCaptured.Load() }

// CommitsCaptured returns the number of commit records processed.
func (c *LogCapture) CommitsCaptured() int64 { return c.commitsCaptured.Load() }

// Started reports whether the capture goroutine has been launched.
func (c *LogCapture) Started() bool { return c.started.Load() }

// Err returns the terminal error, if the capture loop stopped on one.
func (c *LogCapture) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// Start launches the capture goroutine. It runs until the log is closed.
func (c *LogCapture) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer c.track.stop()
		for {
			rec, err := c.reader.NextBlockingContext(c.ctx)
			if err != nil {
				// ErrClosed (log closed) and context.Canceled (Drain) are
				// clean exits; anything else is a terminal capture error.
				if !errors.Is(err, wal.ErrClosed) && !errors.Is(err, context.Canceled) {
					c.errMu.Lock()
					c.err = err
					c.errMu.Unlock()
				}
				return
			}
			if err := c.apply(rec); err != nil {
				c.errMu.Lock()
				c.err = err
				c.errMu.Unlock()
				return
			}
		}
	}()
}

// Wait blocks until the capture goroutine exits (after the log closes).
func (c *LogCapture) Wait() { c.wg.Wait() }

// Drain shuts the capture down in order: it cancels the goroutine's
// blocking wait, waits for it to exit, then synchronously replays every
// complete frame still in the log, so all captured commits reach the delta
// tables BEFORE the caller closes the engine — the shutdown sequence that
// lets capture finish against a live device. Safe to call whether or not
// Start ran; idempotent. It returns the capture's terminal error, if any.
func (c *LogCapture) Drain() error {
	c.cancel()
	c.wg.Wait()
	if err := c.Err(); err != nil {
		c.track.stop()
		return err
	}
	err := c.RunOnce()
	if err != nil {
		c.errMu.Lock()
		c.err = err
		c.errMu.Unlock()
	}
	c.track.stop()
	return err
}

// RunOnce drains all records currently in the log synchronously. It is the
// deterministic-test alternative to Start.
func (c *LogCapture) RunOnce() error {
	_, err := c.RunBounded(0)
	return err
}

// RunBounded synchronously replays up to limit records (limit <= 0 means
// all available), returning how many were processed. The follower's
// scheduler-driven apply job uses it: each step replays a bounded slice of
// the shipped log so one huge shipment cannot monopolize a worker.
func (c *LogCapture) RunBounded(limit int) (int, error) {
	n := 0
	for limit <= 0 || n < limit {
		rec, err := c.reader.Next()
		if errors.Is(err, wal.ErrNoMore) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := c.apply(rec); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func (c *LogCapture) apply(rec *wal.Record) error {
	switch rec.Type {
	case wal.TypeBegin:
		// A Begin starts a fresh transaction: frames left pending under a
		// reused id belong to one cut off before a checkpoint.
		delete(c.pending, rec.TxID)
	case wal.TypeInsert:
		c.pending[rec.TxID] = append(c.pending[rec.TxID], pendingChange{rec.Table, rec.Row, +1})
	case wal.TypeDelete:
		c.pending[rec.TxID] = append(c.pending[rec.TxID], pendingChange{rec.Table, rec.Row, -1})
	case wal.TypeAbort:
		delete(c.pending, rec.TxID)
	case wal.TypeCommit:
		if err := fault.Inject(fault.PointCaptureReplay); err != nil {
			return err
		}
		if c.applyBase {
			// Replica replay: advance the base heaps (and the local clock)
			// to the leader's commit before the delta appends, so by the
			// time the watermark moves, propagation queries at AsOf <= CSN
			// see the commit in both heap and delta form.
			chs := c.pending[rec.TxID]
			writes := make([]engine.Write, len(chs))
			for i, ch := range chs {
				writes[i] = engine.Write{Table: ch.table, Row: ch.row, Count: ch.count}
			}
			if err := c.db.ApplyReplicated(rec.CSN, writes); err != nil {
				return err
			}
		}
		for _, ch := range c.pending[rec.TxID] {
			if !c.db.HasDelta(ch.table) {
				continue
			}
			d, err := c.db.Delta(ch.table)
			if err != nil {
				return err
			}
			d.Append(rec.CSN, ch.count, ch.row)
			c.rowsCaptured.Add(1)
		}
		delete(c.pending, rec.TxID)
		c.uow.add(UOWEntry{TxID: rec.TxID, CSN: rec.CSN, Wall: time.Unix(0, rec.WallNanos)})
		c.commitsCaptured.Add(1)
		c.track.set(rec.CSN)
	default:
		return fmt.Errorf("capture: unexpected record type %s", rec.Type)
	}
	return nil
}
