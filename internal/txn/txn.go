package txn

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relalg"
)

// State is a transaction's lifecycle state.
type State uint8

// The transaction states.
const (
	StateActive State = iota
	StateCommitted
	StateAborted
)

// Txn is one transaction. It is not goroutine-safe: a transaction belongs
// to a single worker at a time (the usual session model).
type Txn struct {
	id    uint64
	mgr   *Manager
	state State
	held  map[string]LockMode
	undo  []func() // undo actions, run in reverse order on abort
	csn   relalg.CSN
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// State returns the lifecycle state.
func (t *Txn) State() State { return t.state }

// CSN returns the commit sequence number; valid only after Commit.
func (t *Txn) CSN() relalg.CSN { return t.csn }

// Lock acquires the named resource in at least the given mode, blocking if
// necessary. It returns ErrDeadlock if the transaction is chosen as a
// deadlock victim; the caller must then abort.
func (t *Txn) Lock(resource string, mode LockMode) error {
	if t.state != StateActive {
		return ErrTxnDone
	}
	return t.mgr.lm.acquire(t, resource, mode)
}

// HeldMode returns the mode currently held on resource (LockNone if none).
func (t *Txn) HeldMode(resource string) LockMode { return t.held[resource] }

// OnAbort registers an undo action to run (in reverse order) if the
// transaction aborts.
func (t *Txn) OnAbort(fn func()) { t.undo = append(t.undo, fn) }

// Manager creates transactions, assigns CSNs in commit order, and owns the
// lock manager.
type Manager struct {
	lm       *lockManager
	nextTxID atomic.Uint64

	// commitMu serializes the commit point: CSN assignment and the commit
	// hook (which writes the WAL commit record) happen atomically, so the
	// log's commit order, the CSN order, and the serialization order all
	// agree.
	commitMu sync.Mutex
	lastCSN  relalg.CSN

	// The commit-publish barrier. A committing transaction runs its publish
	// phase (stamping heap row versions with its CSN) after releasing
	// commitMu; stable trails lastCSN and advances only when every lower
	// CSN has finished publishing, so a reader at AsOf <= stable is
	// guaranteed to observe an exact prefix of the commit order.
	publishMu   sync.Mutex
	publishCond *sync.Cond
	stable      relalg.CSN
	assigned    relalg.CSN              // highest CSN handed out
	inflight    map[relalg.CSN]struct{} // assigned, publish not yet complete
	stallWaits  atomic.Int64            // WaitStable calls that blocked

	begun     atomic.Int64
	committed atomic.Int64
	aborted   atomic.Int64
}

// NewManager returns a fresh transaction manager. CSNs start at 1; CSN 0 is
// the null timestamp.
func NewManager() *Manager {
	m := &Manager{lm: newLockManager(), inflight: make(map[relalg.CSN]struct{})}
	m.publishCond = sync.NewCond(&m.publishMu)
	return m
}

// Begin starts a new transaction.
func (m *Manager) Begin() *Txn {
	m.begun.Add(1)
	return &Txn{
		id:   m.nextTxID.Add(1),
		mgr:  m,
		held: make(map[string]LockMode),
	}
}

// Commit finishes the transaction: it assigns the next CSN, invokes hook
// (if non-nil) with that CSN and the commit wall-clock time while holding
// the commit mutex, then releases all locks. The hook typically appends the
// WAL commit record; doing so under the commit mutex guarantees the log
// reflects commit order.
func (m *Manager) Commit(t *Txn, hook func(csn relalg.CSN, wall time.Time) error) (relalg.CSN, error) {
	return m.CommitPublish(t, hook, nil)
}

// CommitPublish is Commit with an additional publish phase: after the CSN
// is assigned and the hook has run, publish (if non-nil) runs outside the
// commit mutex — concurrently with other committers — and only once it
// returns does the transaction's CSN become stable (visible to snapshot
// readers) and its locks release. The engine stamps heap row versions with
// the commit CSN here, so CSN assignment and heap visibility are atomic
// with respect to the stable-CSN barrier.
func (m *Manager) CommitPublish(t *Txn, hook func(csn relalg.CSN, wall time.Time) error, publish func(csn relalg.CSN)) (relalg.CSN, error) {
	if t.state != StateActive {
		return 0, ErrTxnDone
	}
	m.commitMu.Lock()
	csn := m.lastCSN + 1
	if hook != nil {
		if err := hook(csn, time.Now()); err != nil {
			m.commitMu.Unlock()
			return 0, err
		}
	}
	m.lastCSN = csn
	m.publishMu.Lock()
	m.assigned = csn
	m.inflight[csn] = struct{}{}
	m.publishMu.Unlock()
	m.commitMu.Unlock()

	if publish != nil {
		publish(csn)
	}
	m.endPublish(csn)

	t.state = StateCommitted
	t.csn = csn
	t.undo = nil
	m.lm.release(t)
	m.committed.Add(1)
	return csn, nil
}

// endPublish marks csn's publish phase complete and advances the stable
// CSN past every contiguously published prefix.
func (m *Manager) endPublish(csn relalg.CSN) {
	m.publishMu.Lock()
	delete(m.inflight, csn)
	stable := m.assigned
	for c := range m.inflight {
		if c-1 < stable {
			stable = c - 1
		}
	}
	if stable > m.stable {
		m.stable = stable
		m.publishCond.Broadcast()
	}
	m.publishMu.Unlock()
}

// StableCSN returns the highest CSN S such that every transaction with CSN
// <= S has completed its publish phase: a read at AsOf <= S observes an
// exact prefix of the commit order.
func (m *Manager) StableCSN() relalg.CSN {
	m.publishMu.Lock()
	defer m.publishMu.Unlock()
	return m.stable
}

// WaitStable blocks until the stable CSN reaches csn. It returns
// immediately when csn is already stable.
func (m *Manager) WaitStable(csn relalg.CSN) {
	m.publishMu.Lock()
	if m.stable < csn {
		m.stallWaits.Add(1)
		for m.stable < csn {
			m.publishCond.Wait()
		}
	}
	m.publishMu.Unlock()
}

// CommitQuiet finishes the transaction keeping its effects but WITHOUT
// assigning a CSN, running a commit hook, or touching the publish barrier.
// Replica engines use it for local view-maintenance commits: a follower's
// time axis is the leader's CSN sequence replayed from the shipped log, so
// follower-side propagation must not mint CSNs of its own — doing so would
// desynchronize the replica's clock from the leader's. The transaction's
// effects (delta-table appends) stand; undo actions are discarded and
// locks release as on a normal commit.
func (m *Manager) CommitQuiet(t *Txn) error {
	if t.state != StateActive {
		return ErrTxnDone
	}
	t.state = StateCommitted
	t.undo = nil
	m.lm.release(t)
	m.committed.Add(1)
	return nil
}

// Abort rolls the transaction back: undo actions run in reverse order, then
// all locks are released.
func (m *Manager) Abort(t *Txn) error {
	if t.state != StateActive {
		return ErrTxnDone
	}
	t.state = StateAborted
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i]()
	}
	t.undo = nil
	m.lm.abortWaiters(t)
	m.lm.release(t)
	m.aborted.Add(1)
	return nil
}

// LastCSN returns the most recently assigned commit sequence number.
func (m *Manager) LastCSN() relalg.CSN {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	return m.lastCSN
}

// Recover fast-forwards the commit-sequence counter past the highest CSN
// replayed from the log, so post-recovery commits continue the sequence.
// It never moves the counter backwards.
func (m *Manager) Recover(last relalg.CSN) {
	m.commitMu.Lock()
	if last > m.lastCSN {
		m.lastCSN = last
	}
	m.publishMu.Lock()
	if last > m.assigned {
		m.assigned = last
	}
	if last > m.stable {
		m.stable = last
		m.publishCond.Broadcast()
	}
	m.publishMu.Unlock()
	m.commitMu.Unlock()
}

// Stats is a snapshot of lock and transaction counters.
type Stats struct {
	Begun, Committed, Aborted int64
	LockAcquires              int64
	LockWaits                 int64
	LockWaitTime              time.Duration
	Deadlocks                 int64
	Upgrades                  int64
	PublishStalls             int64 // WaitStable calls that had to block
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Begun:         m.begun.Load(),
		Committed:     m.committed.Load(),
		Aborted:       m.aborted.Load(),
		LockAcquires:  m.lm.acquires.Load(),
		LockWaits:     m.lm.waits.Load(),
		LockWaitTime:  time.Duration(m.lm.waitNanos.Load()),
		Deadlocks:     m.lm.deadlocks.Load(),
		Upgrades:      m.lm.escalation.Load(),
		PublishStalls: m.stallWaits.Load(),
	}
}
