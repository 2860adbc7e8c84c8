// Package fault provides named failpoints for crash-fault injection and a
// fault-simulating log device. The durability paths — WAL append/sync, the
// checkpoint write/rename pipeline, capture replay, view-delta apply, the
// commit publish phase, and snapshot restore — each evaluate a named
// failpoint; tests and the chaos tooling arm those points with actions that
// return transient I/O errors or simulate a process crash (freezing the
// underlying device so nothing later becomes durable).
//
// When nothing is armed, Inject is a single atomic load, so production and
// benchmark paths pay essentially nothing.
//
// Failpoints can also be armed from the environment for whole-binary chaos
// runs:
//
//	ROLLINGJOIN_FAULTS="apply=err-every:50,wal/sync=err:2"
//
// Each comma-separated clause is name=mode where mode is "err" (fail every
// evaluation), "err:N" (fail the first N evaluations), or "err-every:N"
// (fail every Nth evaluation).
package fault

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Canonical failpoint names, one per durability-critical site. The crash
// classes they fall into are documented in DESIGN.md §8.
const (
	// PointWALAppend fires inside wal.Log.Append before the device write.
	PointWALAppend = "wal/append"
	// PointWALSync fires inside wal.Log.Sync before the device sync.
	PointWALSync = "wal/sync"
	// PointCheckpointWrite fires before the checkpoint temp file is written.
	PointCheckpointWrite = "checkpoint/write"
	// PointCheckpointRename fires after the temp file is synced, before the
	// atomic rename publishes it.
	PointCheckpointRename = "checkpoint/rename"
	// PointCaptureReplay fires as capture applies a commit's changes to the
	// base delta tables.
	PointCaptureReplay = "capture/replay"
	// PointAggregate fires at the start of an incremental aggregate's
	// propagation step, before any upstream delta rows are folded. Cascade
	// crash tests use it to kill a process mid-cascade.
	PointAggregate = "aggregate"
	// PointApply fires as the apply driver folds a view-delta window into
	// the materialized view.
	PointApply = "apply"
	// PointPublish fires in the commit publish phase, after the WAL commit
	// record is durable but before row versions are stamped. The error is
	// not propagated (publish cannot fail); arm it only with crash actions.
	PointPublish = "publish"
	// PointRestore fires at the start of snapshot restore, before any state
	// is loaded.
	PointRestore = "restore"
	// PointFold fires at the start of a delta-prefix fold pass, before any
	// image is compacted or delta prefix pruned. Folding touches only
	// volatile state (images and delta tables are rebuilt from the WAL), so
	// a crash here must always be recoverable.
	PointFold = "fold"
	// PointChainWrite fires before an incremental-checkpoint chain link's
	// temp file is written; PointChainRename fires after the temp file is
	// synced, before the atomic rename publishes the link.
	PointChainWrite  = "chain/write"
	PointChainRename = "chain/rename"
	// PointSpillWrite fires before a cold derived-view image is serialized
	// to the spill directory;
	// PointSpillLoad fires before a spilled file is read back on access.
	PointSpillWrite = "spill/write"
	PointSpillLoad  = "spill/load"
	// PointDevAppend/Sync/Read fire inside the fault Device wrapper itself,
	// below the WAL framing layer.
	PointDevAppend = "dev/append"
	PointDevSync   = "dev/sync"
	PointDevRead   = "dev/read"
)

// Injection errors.
var (
	// ErrInjected is the transient I/O error actions return by default —
	// the EIO analogue maintenance jobs must survive via retry/backoff.
	ErrInjected = errors.New("fault: injected I/O error")
	// ErrCrash is returned by crash actions after freezing the device: the
	// simulated process dies here, and only synced bytes survive.
	ErrCrash = errors.New("fault: crash")
)

// Action decides what happens when an armed failpoint is evaluated: return
// nil to pass, or an error to inject it at the site. Actions run on the
// evaluating goroutine and must be safe for concurrent use.
type Action func() error

type point struct {
	mu     sync.Mutex
	action Action
	evals  atomic.Int64
	trips  atomic.Int64
}

var (
	armed  atomic.Bool // fast-path gate: false = every Inject returns nil
	regMu  sync.Mutex
	points = make(map[string]*point)
)

// Enabled reports whether any failpoint is armed. Sites that cannot
// propagate an error cheaply can skip their slow path on false.
func Enabled() bool { return armed.Load() }

// Inject evaluates the named failpoint, returning the armed action's error
// (nil when disarmed or passing). When no failpoint is armed anywhere this
// is a single atomic load.
func Inject(name string) error {
	if !armed.Load() {
		return nil
	}
	return inject(name)
}

func inject(name string) error {
	regMu.Lock()
	p := points[name]
	regMu.Unlock()
	if p == nil {
		return nil
	}
	p.evals.Add(1)
	p.mu.Lock()
	a := p.action
	p.mu.Unlock()
	if a == nil {
		return nil
	}
	err := a()
	if err != nil {
		p.trips.Add(1)
	}
	return err
}

// Set arms the named failpoint with an action and enables injection.
func Set(name string, a Action) {
	regMu.Lock()
	p := points[name]
	if p == nil {
		p = &point{}
		points[name] = p
	}
	regMu.Unlock()
	p.mu.Lock()
	p.action = a
	p.mu.Unlock()
	armed.Store(true)
}

// Clear disarms one failpoint, keeping its counters.
func Clear(name string) {
	regMu.Lock()
	p := points[name]
	regMu.Unlock()
	if p != nil {
		p.mu.Lock()
		p.action = nil
		p.mu.Unlock()
	}
}

// Reset disarms every failpoint, clears all counters, and disables the
// fast-path gate. Tests defer it.
func Reset() {
	armed.Store(false)
	regMu.Lock()
	points = make(map[string]*point)
	regMu.Unlock()
}

// Evals returns how many times the named failpoint was evaluated while
// injection was enabled.
func Evals(name string) int64 {
	regMu.Lock()
	p := points[name]
	regMu.Unlock()
	if p == nil {
		return 0
	}
	return p.evals.Load()
}

// Trips returns how many times the named failpoint's action injected an
// error.
func Trips(name string) int64 {
	regMu.Lock()
	p := points[name]
	regMu.Unlock()
	if p == nil {
		return 0
	}
	return p.trips.Load()
}

// ErrAlways injects err on every evaluation.
func ErrAlways(err error) Action { return func() error { return err } }

// ErrTimes injects err on the first n evaluations, then passes.
func ErrTimes(n int64, err error) Action {
	var count atomic.Int64
	return func() error {
		if count.Add(1) <= n {
			return err
		}
		return nil
	}
}

// ErrEvery injects err on every nth evaluation (n >= 1).
func ErrEvery(n int64, err error) Action {
	if n < 1 {
		n = 1
	}
	var count atomic.Int64
	return func() error {
		if count.Add(1)%n == 0 {
			return err
		}
		return nil
	}
}

// Freezer is anything that can stop persisting writes — the fault Device.
type Freezer interface{ Freeze() }

// Crash freezes the device and injects ErrCrash: the simulated process
// dies at this failpoint, and recovery sees only what was synced (plus
// whatever torn tail the crash image includes).
func Crash(f Freezer) Action {
	return func() error {
		f.Freeze()
		return ErrCrash
	}
}

// CrashOnHit passes the first n-1 evaluations, then crashes (n >= 1).
func CrashOnHit(n int64, f Freezer) Action {
	var count atomic.Int64
	return func() error {
		if count.Add(1) < n {
			return nil
		}
		f.Freeze()
		return ErrCrash
	}
}

// Parse arms failpoints from a comma-separated spec (see package comment).
func Parse(spec string) error {
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, mode, ok := strings.Cut(clause, "=")
		if !ok {
			return fmt.Errorf("fault: bad clause %q (want name=mode)", clause)
		}
		kind, arg, hasArg := strings.Cut(mode, ":")
		var n int64 = 1
		if hasArg {
			v, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || v < 1 {
				return fmt.Errorf("fault: bad count in %q", clause)
			}
			n = v
		}
		switch kind {
		case "err":
			if hasArg {
				Set(name, ErrTimes(n, ErrInjected))
			} else {
				Set(name, ErrAlways(ErrInjected))
			}
		case "err-every":
			Set(name, ErrEvery(n, ErrInjected))
		case "off":
			Clear(name)
		default:
			return fmt.Errorf("fault: unknown mode %q in %q", kind, clause)
		}
	}
	return nil
}

func init() {
	if spec := os.Getenv("ROLLINGJOIN_FAULTS"); spec != "" {
		if err := Parse(spec); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
}
