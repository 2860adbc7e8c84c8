// Package sched is the unified maintenance runtime: a single scheduler
// that owns every view's propagation and application work as jobs on a
// shared bounded worker pool, replacing the per-view goroutine loops.
//
// The paper (Section 5 / Figure 11) treats propagate and apply as
// independently scheduled activities over the shared time axis; this
// package supplies the scheduling. Jobs are woken event-driven — capture
// calls Notify once per committed transaction, so "work is ready" is a
// precise event rather than a polling guess — and each job is paced by
// its own step function (which consults the propagation interval policy)
// plus an optional backlog-based backpressure signal.
//
// A job is a state machine:
//
//	Stopped ─Start→ Idle ─Kick→ Runnable ─worker→ Running
//	  Running ─no work─→ Idle          (waits for the next Notify)
//	  Running ─backlog over limit─→ Parked (waits for apply progress)
//	  Running ─error─→ Backoff …→ Failed (capped exponential backoff,
//	                                      then fail-stop with Err set)
//
// The step function's error is classified into one of four outcomes so
// the scheduler can distinguish transient capture lag (Idle: wait for
// the next event) from a clean halt (capture stopped) and from genuine
// failures (retry with backoff, then fail-stop). Stop and Close drain:
// they return only after any in-flight step has finished.
package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relalg"
)

// Outcome classifies one step's result.
type Outcome int

// The step outcomes.
const (
	// Progress: the step did useful work; run again soon.
	Progress Outcome = iota
	// Idle: nothing to do until the next notification (transient
	// capture lag — not an error).
	Idle
	// Halt: the job's input source stopped cleanly; stop the job.
	Halt
	// Fail: a genuine error; retry with capped exponential backoff and
	// fail-stop after repeated failure.
	Fail
)

// ErrClosed is returned by Await when the scheduler shuts down while the
// awaited condition is still false.
var ErrClosed = errors.New("sched: scheduler closed")

// Scheduling parameters.
const (
	// maxStepsPerQuantum and quantum bound how long one job may occupy a
	// worker before yielding the queue to its peers.
	maxStepsPerQuantum = 32
	quantum            = 2 * time.Millisecond

	// backoffBase/backoffMax/maxRetries define the error policy: the
	// first retry waits backoffBase, doubling up to backoffMax, and the
	// job fail-stops after maxRetries consecutive failing steps.
	backoffBase = time.Millisecond
	backoffMax  = 128 * time.Millisecond
	maxRetries  = 8

	// backlogProbeLimit caps how far Stats walks each job's backlog.
	backlogProbeLimit = 1 << 20
)

// Options configures a job at registration.
type Options struct {
	// HWM reports the job's progress watermark (the view delta
	// high-water mark for propagation jobs). A parked job keeps running
	// while a Demand target lies past the watermark. May be nil.
	HWM func() relalg.CSN
	// Classify maps a step error to an Outcome. When nil, a nil error
	// is Progress and everything else Fail.
	Classify func(error) Outcome
	// Backlog reports pending downstream work (rows), counting at most
	// limit. Used with MaxBacklog for backpressure. May be nil.
	Backlog func(limit int) int
	// MaxBacklog parks the job while Backlog exceeds it (0 disables
	// backpressure).
	MaxBacklog int
	// OnProgress runs after every step that made progress (outside all
	// scheduler locks) — the hook that chains dependent jobs.
	OnProgress func()
	// WakeOnNotify kicks the job on every Scheduler.Notify (capture
	// progress). Propagation jobs set it; downstream jobs are chained
	// via OnProgress instead.
	WakeOnNotify bool
	// LowPriority routes the job to the background queue, served only when
	// no regular job is runnable. Storage-maintenance work (delta-prefix
	// folding, cold spill) runs here so it never delays propagation or
	// apply under load, yet uses the same workers when the system is quiet.
	LowPriority bool
}

// Stats is a snapshot of scheduler activity.
type Stats struct {
	Workers  int
	Jobs     int   // registered jobs
	Running  int   // jobs currently started
	Notifies int64 // capture notifications received
	Wakeups  int64 // job dispatches onto a worker
	Steps    int64 // step-function invocations
	Parks    int64 // backpressure parks
	Backoffs int64 // error backoffs
	Backlog  int64 // summed pending backlog rows across jobs
}

// Scheduler runs registered jobs on a bounded worker pool.
type Scheduler struct {
	workers int

	mu     sync.Mutex
	qcond  *sync.Cond
	queue  []*Job
	lowq   []*Job // low-priority queue, served only when queue is empty
	jobs   map[*Job]struct{}
	closed bool
	wg     sync.WaitGroup

	// snapshot holds a copy of the job set ([]*Job) so Notify never
	// takes s.mu while kicking jobs (which takes per-job mutexes).
	snapshot atomic.Value

	lastCSN  atomic.Int64
	notifies atomic.Int64
	wakeups  atomic.Int64
	steps    atomic.Int64
	parks    atomic.Int64
	backoffs atomic.Int64
}

// New creates a scheduler with the given worker-pool size (minimum 1).
func New(workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	s := &Scheduler{workers: workers, jobs: make(map[*Job]struct{})}
	s.qcond = sync.NewCond(&s.mu)
	s.snapshot.Store([]*Job(nil))
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Register adds a job in the Stopped state; call Start to schedule it.
func (s *Scheduler) Register(name string, step func() error, opt Options) *Job {
	j := &Job{name: name, s: s, step: step, opt: opt, gen: make(chan struct{})}
	s.mu.Lock()
	s.jobs[j] = struct{}{}
	s.refreshSnapshotLocked()
	s.mu.Unlock()
	return j
}

// Unregister stops a job (draining any in-flight step) and removes it.
func (s *Scheduler) Unregister(j *Job) {
	j.Stop()
	s.mu.Lock()
	delete(s.jobs, j)
	s.refreshSnapshotLocked()
	s.mu.Unlock()
}

func (s *Scheduler) refreshSnapshotLocked() {
	jobs := make([]*Job, 0, len(s.jobs))
	for j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.snapshot.Store(jobs)
}

func (s *Scheduler) jobsSnapshot() []*Job {
	jobs, _ := s.snapshot.Load().([]*Job)
	return jobs
}

// Notify reports capture progress: every commit at or below csn is fully
// reflected in the delta tables. It wakes all WakeOnNotify jobs.
func (s *Scheduler) Notify(csn relalg.CSN) {
	s.notifies.Add(1)
	for {
		cur := s.lastCSN.Load()
		if int64(csn) <= cur || s.lastCSN.CompareAndSwap(cur, int64(csn)) {
			break
		}
	}
	for _, j := range s.jobsSnapshot() {
		if j.opt.WakeOnNotify {
			j.Kick()
		}
	}
}

// LastNotified returns the highest CSN passed to Notify.
func (s *Scheduler) LastNotified() relalg.CSN {
	return relalg.CSN(s.lastCSN.Load())
}

// Stats returns a snapshot of scheduler counters.
func (s *Scheduler) Stats() Stats {
	jobs := s.jobsSnapshot()
	st := Stats{
		Workers:  s.workers,
		Jobs:     len(jobs),
		Notifies: s.notifies.Load(),
		Wakeups:  s.wakeups.Load(),
		Steps:    s.steps.Load(),
		Parks:    s.parks.Load(),
		Backoffs: s.backoffs.Load(),
	}
	for _, j := range jobs {
		if j.Running() {
			st.Running++
		}
		if j.opt.Backlog != nil {
			st.Backlog += int64(j.opt.Backlog(backlogProbeLimit))
		}
	}
	return st
}

// Close stops every job — draining in-flight steps — and shuts the
// worker pool down. It is idempotent; the scheduler cannot be reused.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.qcond.Broadcast()
	s.mu.Unlock()
	for _, j := range s.jobsSnapshot() {
		j.Stop()
		j.broadcast() // release Await-ers; they observe ErrClosed
	}
	s.wg.Wait()
}

func (s *Scheduler) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Scheduler) enqueue(j *Job) {
	s.mu.Lock()
	if !s.closed {
		if j.opt.LowPriority {
			s.lowq = append(s.lowq, j)
		} else {
			s.queue = append(s.queue, j)
		}
		s.qcond.Signal()
	}
	s.mu.Unlock()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && len(s.lowq) == 0 && !s.closed {
			s.qcond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		// Strict priority: the background queue is consulted only when no
		// regular job is runnable. Low-priority jobs cannot starve the
		// foreground (they only occupy a worker for one quantum), and the
		// foreground can starve them by design — storage maintenance waits
		// for quiet.
		q := &s.queue
		if len(s.queue) == 0 {
			q = &s.lowq
		}
		j := (*q)[0]
		copy(*q, (*q)[1:])
		*q = (*q)[:len(*q)-1]
		s.mu.Unlock()
		s.runJob(j)
	}
}

// runJob executes one scheduling quantum of j: up to maxStepsPerQuantum
// steps or quantum wall time, then yields the worker so peers interleave.
func (s *Scheduler) runJob(j *Job) {
	j.mu.Lock()
	if j.state != stateRunnable {
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()

	// runMu serializes step execution per job: the underlying Step
	// implementations are single-driver (and StepNow shares the same
	// exclusion), so at most one goroutine steps a job at a time.
	j.runMu.Lock()
	defer j.runMu.Unlock()

	j.mu.Lock()
	if j.state != stateRunnable {
		j.mu.Unlock()
		return
	}
	j.state = stateRunning
	j.wake = false
	j.mu.Unlock()
	s.wakeups.Add(1)

	deadline := time.Now().Add(quantum)
	for n := 0; ; n++ {
		if !j.continueRunning() {
			return
		}
		err := j.step()
		s.steps.Add(1)
		switch j.classify(err) {
		case Progress:
			j.noteProgress()
			if n+1 >= maxStepsPerQuantum || time.Now().After(deadline) {
				j.yield()
				return
			}
		case Idle:
			if !j.settleIdle() {
				return
			}
		case Halt:
			j.halt()
			return
		default: // Fail
			j.backoff(err)
			return
		}
	}
}

type jobState int

const (
	stateStopped jobState = iota
	stateIdle
	stateRunnable
	stateRunning
	stateBackoff
	stateParked
	stateFailed
)

// Job is one schedulable unit of maintenance work (a view's propagation,
// application, or summary refresh). All methods are safe for concurrent
// use; Start/Stop are idempotent.
type Job struct {
	name string
	s    *Scheduler
	step func() error
	opt  Options

	// runMu is held for the duration of every step (worker quanta and
	// StepNow), giving the single-driver exclusion Step implementations
	// require. Lock order: runMu before mu; never acquire runMu while
	// holding mu.
	runMu sync.Mutex

	mu      sync.Mutex
	state   jobState
	wake    bool       // a Kick arrived while Running
	demand  relalg.CSN // waiters need the watermark past this point
	err     error      // terminal error (stateFailed)
	retries int
	timer   *time.Timer   // pending backoff re-enqueue
	gen     chan struct{} // closed+replaced on progress / terminal change
}

// Name returns the job name (for diagnostics).
func (j *Job) Name() string { return j.name }

// Start schedules the job; it is a no-op if already started. Starting a
// Failed job clears the error and retries from scratch.
func (j *Job) Start() {
	j.mu.Lock()
	if j.state != stateStopped && j.state != stateFailed {
		j.mu.Unlock()
		return
	}
	j.state = stateIdle
	j.err = nil
	j.retries = 0
	j.mu.Unlock()
	j.Kick()
}

// Stop takes the job out of scheduling and drains any in-flight step
// before returning (the suspended state survives: Start resumes from the
// same position). It returns the terminal error if the job fail-stopped.
func (j *Job) Stop() error {
	j.mu.Lock()
	if j.state == stateStopped || j.state == stateFailed {
		err := j.err
		j.mu.Unlock()
		return err
	}
	j.state = stateStopped
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	j.broadcastLocked()
	j.mu.Unlock()
	// Drain: an in-flight quantum observes stateStopped at its next
	// outcome settle; waiting on runMu guarantees it has returned.
	j.runMu.Lock()
	j.runMu.Unlock() //nolint:staticcheck // empty critical section = drain
	return nil
}

// Running reports whether the job is currently scheduled (started and
// not fail-stopped).
func (j *Job) Running() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state != stateStopped && j.state != stateFailed
}

// Err returns the terminal error of a fail-stopped job, if any.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Kick makes the job runnable: an Idle or Parked job is enqueued, a
// Running job is flagged to re-check for work before settling idle.
func (j *Job) Kick() {
	j.mu.Lock()
	switch j.state {
	case stateIdle, stateParked:
		j.state = stateRunnable
		j.mu.Unlock()
		j.s.enqueue(j)
		return
	case stateRunning:
		j.wake = true
	}
	j.mu.Unlock()
}

// Demand records that a waiter needs the job's watermark to reach csn;
// backpressure parking is bypassed until it does.
func (j *Job) Demand(csn relalg.CSN) {
	j.mu.Lock()
	if csn > j.demand {
		j.demand = csn
	}
	j.mu.Unlock()
	j.Kick()
}

// StepNow runs one step synchronously under the job's step exclusion —
// the manual-drive path (View.PropagateStep, CatchUp). It can be used
// whether or not the job is scheduled.
func (j *Job) StepNow() error {
	j.runMu.Lock()
	defer j.runMu.Unlock()
	err := j.step()
	j.s.steps.Add(1)
	if j.classify(err) == Progress {
		j.noteProgress()
	}
	return err
}

// Await blocks until cond() is true. It returns the job's terminal error
// if it fail-stops, ErrClosed if the scheduler shuts down, or the
// context error on cancellation. cond is evaluated without scheduler
// locks held and must be safe for concurrent use.
func (j *Job) Await(ctx context.Context, cond func() bool) error {
	for {
		if cond() {
			return nil
		}
		j.mu.Lock()
		if j.state == stateFailed {
			err := j.err
			j.mu.Unlock()
			return err
		}
		ch := j.gen
		j.mu.Unlock()
		// Re-check after capturing the generation channel: a broadcast
		// between the first check and the capture would otherwise be lost.
		if cond() {
			return nil
		}
		if j.s.isClosed() {
			return ErrClosed
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// classify applies the configured outcome mapping.
func (j *Job) classify(err error) Outcome {
	if j.opt.Classify != nil {
		return j.opt.Classify(err)
	}
	if err == nil {
		return Progress
	}
	return Fail
}

// continueRunning reports whether the quantum should execute another
// step: the job must still be Running and under its backlog limit. A
// job over the limit parks — unless a Demand target lies past its
// watermark, in which case waiters override backpressure.
func (j *Job) continueRunning() bool {
	over := false
	if j.opt.MaxBacklog > 0 && j.opt.Backlog != nil {
		over = j.opt.Backlog(j.opt.MaxBacklog+1) > j.opt.MaxBacklog
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != stateRunning {
		return false
	}
	if over {
		if j.opt.HWM != nil && j.demand > j.opt.HWM() {
			return true
		}
		j.state = stateParked
		j.s.parks.Add(1)
		return false
	}
	return true
}

func (j *Job) noteProgress() {
	j.mu.Lock()
	j.retries = 0
	j.broadcastLocked()
	j.mu.Unlock()
	if j.opt.OnProgress != nil {
		j.opt.OnProgress()
	}
}

// yield puts a still-running job back on the queue (end of quantum).
func (j *Job) yield() {
	j.mu.Lock()
	if j.state != stateRunning {
		j.mu.Unlock()
		return
	}
	j.state = stateRunnable
	j.mu.Unlock()
	j.s.enqueue(j)
}

// settleIdle transitions Running → Idle unless a Kick raced in while the
// job was stepping; it reports whether to keep stepping.
func (j *Job) settleIdle() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != stateRunning {
		return false
	}
	if j.wake {
		j.wake = false
		return true
	}
	j.state = stateIdle
	return false
}

// halt stops the job cleanly (capture shut down).
func (j *Job) halt() {
	j.mu.Lock()
	if j.state == stateRunning {
		j.state = stateStopped
	}
	j.broadcastLocked()
	j.mu.Unlock()
}

// backoff applies the error policy after a failing step: capped
// exponential delay, fail-stop after maxRetries consecutive failures.
func (j *Job) backoff(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != stateRunning {
		return
	}
	j.retries++
	if j.retries > maxRetries {
		j.state = stateFailed
		j.err = err
		j.broadcastLocked()
		return
	}
	d := backoffBase << (j.retries - 1)
	if d > backoffMax {
		d = backoffMax
	}
	j.state = stateBackoff
	j.s.backoffs.Add(1)
	j.timer = time.AfterFunc(d, func() {
		j.mu.Lock()
		if j.state != stateBackoff {
			j.mu.Unlock()
			return
		}
		j.state = stateRunnable
		j.timer = nil
		j.mu.Unlock()
		j.s.enqueue(j)
	})
}

func (j *Job) broadcast() {
	j.mu.Lock()
	j.broadcastLocked()
	j.mu.Unlock()
}

// broadcastLocked wakes every Await-er to re-check its condition.
// Caller holds mu.
func (j *Job) broadcastLocked() {
	close(j.gen)
	j.gen = make(chan struct{})
}
