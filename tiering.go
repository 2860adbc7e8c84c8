package rollingjoin

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sched"
)

// maxFoldCSN is the no-ceiling limit for foldTo: PruneApplied's classic
// behavior, floored only by materialization times and downstream readers.
const maxFoldCSN = CSN(math.MaxInt64)

// Fold runs one delta-prefix fold pass synchronously: every view's and
// aggregate's delta prefix below the storage horizon (open snapshots,
// ledger pins, downstream readers, materialization times) folds into its
// derived image, base-table delta prefixes no reader can reach are
// discarded, dead row versions are collected, and the unit-of-work table
// prefix below every materialization time is dropped. With background
// folding enabled (Options.FoldDeltas) the pass serializes with the
// scheduled fold job. A pass with nothing to reclaim is not an error.
func (db *DB) Fold() error {
	var err error
	if db.fold != nil && db.fold.Running() {
		err = db.fold.StepNow()
	} else {
		err = db.foldStep()
	}
	if err == core.ErrNoProgress {
		return nil
	}
	return err
}

// foldStep is the fold job's step function. One pass:
//
//  1. Compute the fold floor from the engine's horizon ledger — the
//     minimum of the stable CSN, every open snapshot, and every named pin
//     (incremental checkpoints pin their chain tail here).
//  2. Fold each view/aggregate to min(floor, its MatTime, downstream
//     HWMs) via foldTo, which compacts the derived image before pruning
//     the delta rows it covered.
//  3. Prune base-table delta prefixes to min(floor, referencing views'
//     HWMs) — including deltas no view references at all.
//  4. Collect dead row versions below min(floor, every MatTime) — the
//     same ceiling bounds the version-GC horizon so a lagging subscriber
//     can still open compensation snapshots at its old HWM — and drop
//     the unit-of-work prefix below it, bounding capture-side memory.
//
// It reports core.ErrNoProgress (→ scheduler Idle) when the pass
// reclaimed nothing, so the low-priority job sleeps until the next
// capture notification.
func (db *DB) foldStep() error {
	if err := fault.Inject(fault.PointFold); err != nil {
		return err
	}
	floor := db.eng.Horizons().Floor()

	db.mu.Lock()
	views := make([]*View, 0, len(db.views))
	for _, v := range db.views {
		views = append(views, v)
	}
	aggs := make([]*AggregateView, 0, len(db.aggs))
	for _, a := range db.aggs {
		aggs = append(aggs, a)
	}
	db.mu.Unlock()

	reclaimed := 0
	matFloor := floor
	for _, v := range views {
		reclaimed += v.foldTo(floor)
		if t := v.MatTime(); t < matFloor {
			matFloor = t
		}
	}
	for _, a := range aggs {
		reclaimed += a.foldTo(floor)
		if t := a.MatTime(); t < matFloor {
			matFloor = t
		}
	}
	reclaimed += db.pruneBaseDeltasTo(floor, true)

	collected, _ := db.eng.GCVersionsBelow(matFloor)

	// The unit-of-work prefix is dead once no refresh target can land
	// there: every view has rolled past it and no snapshot or pin reads
	// below it. Reach the table without ensureCapture — the fold job must
	// not start log capture on a freshly reopened database that still
	// needs Recover.
	pruned := 0
	var uow *capture.UnitOfWork
	if db.logCap != nil {
		uow = db.logCap.UOW()
	} else if db.trigCap != nil {
		uow = db.trigCap.UOW()
	}
	if uow != nil {
		pruned = uow.PruneThrough(matFloor)
	}

	if reclaimed == 0 && collected == 0 && pruned == 0 {
		return core.ErrNoProgress
	}
	db.eng.NoteFold(int64(reclaimed))
	return nil
}

// pruneBaseDeltasTo prunes each base table's delta rows at or below
// min(limit, lowest HWM of the views referencing it). With all set,
// deltas referenced by no view prune straight to limit (safe: a future
// view materializes at definition time and reads only windows above it).
func (db *DB) pruneBaseDeltasTo(limit CSN, all bool) int {
	db.mu.Lock()
	// Collect, per input relation, the lowest HWM across referencing views.
	safe := make(map[string]CSN)
	acc := func(rels []string, hwm CSN) {
		for _, rel := range rels {
			if cur, ok := safe[rel]; !ok || hwm < cur {
				safe[rel] = hwm
			}
		}
	}
	for _, v := range db.views {
		acc(v.def.Relations, v.hwm())
	}
	for _, a := range db.aggs {
		acc([]string{a.source}, a.hwm())
	}
	db.mu.Unlock()
	if all {
		for _, t := range db.eng.TableNames() {
			if _, ok := safe[t]; !ok {
				safe[t] = limit
			}
		}
	}
	pruned := 0
	for table, hwm := range safe {
		if db.eng.IsDerived(table) {
			// A maintained view's own delta doubles as its readable state;
			// it is pruned through View.PruneApplied, which compacts the
			// derived image with downstream-aware flooring first.
			continue
		}
		if hwm > limit {
			hwm = limit
		}
		d, err := db.eng.Delta(table)
		if err != nil {
			continue
		}
		pruned += d.PruneThrough(hwm)
	}
	return pruned
}

// spillStep is the cold-spill job's step function: serialize derived
// images untouched since the idleness cutoff to the spill directory,
// dropping the in-memory copies. Reports core.ErrNoProgress when nothing
// was cold.
func (db *DB) spillStep() error {
	n, err := db.eng.SpillIdle(db.spillDir, time.Now().Add(-db.spillAfter))
	if err != nil {
		return err
	}
	if n == 0 {
		return core.ErrNoProgress
	}
	return nil
}

// Spill runs one cold-spill sweep synchronously (tests and experiments;
// the background ticker drives it otherwise). It returns the number of
// structures spilled.
func (db *DB) Spill() (int, error) {
	if db.spillDir == "" {
		return 0, fmt.Errorf("rollingjoin: spilling not enabled (Options.SpillDir)")
	}
	if db.spill != nil && db.spill.Running() {
		err := db.spill.StepNow()
		if err == core.ErrNoProgress {
			err = nil
		}
		// StepNow doesn't surface the count; report via stats instead.
		return 0, err
	}
	n, err := db.eng.SpillIdle(db.spillDir, time.Now().Add(-db.spillAfter))
	return n, err
}

// startTiering registers the storage-tiering maintenance jobs per the
// options: a fold job woken by capture notifications and a spill sweep
// kicked by a wall-clock ticker, both on the scheduler's low-priority
// queue so they never delay propagation or apply.
func (db *DB) startTiering(opts Options) error {
	if opts.FoldDeltas {
		db.fold = db.sched.Register("tier:fold", db.foldStep, sched.Options{
			Classify:     classifyMaintenance,
			WakeOnNotify: true,
			LowPriority:  true,
		})
		db.fold.Start()
	}
	if opts.SpillDir != "" {
		if err := os.MkdirAll(opts.SpillDir, 0o755); err != nil {
			return err
		}
		// A per-process subdirectory: spill files are process-lifetime
		// state (a reopened database rebuilds from the log/checkpoint), so
		// a unique subdir guarantees a stale file from a previous process
		// can never satisfy a load.
		sub, err := os.MkdirTemp(opts.SpillDir, "spill-*")
		if err != nil {
			return err
		}
		db.spillDir = sub
		db.spillAfter = opts.SpillAfter
		if db.spillAfter <= 0 {
			db.spillAfter = time.Minute
		}
		db.spill = db.sched.Register("tier:spill", db.spillStep, sched.Options{
			Classify:    classifyMaintenance,
			LowPriority: true,
		})
		db.spill.Start()
		db.spillStop = make(chan struct{})
		db.spillWg.Add(1)
		go func() {
			defer db.spillWg.Done()
			tick := time.NewTicker(db.spillAfter)
			defer tick.Stop()
			for {
				select {
				case <-db.spillStop:
					return
				case <-tick.C:
					db.spill.Kick()
				}
			}
		}()
	}
	return nil
}

// stopTiering halts the spill ticker (Close). The jobs themselves drain
// with the scheduler.
func (db *DB) stopTiering() {
	if db.spillStop != nil {
		close(db.spillStop)
		db.spillWg.Wait()
		db.spillStop = nil
	}
	if db.spillDir != "" {
		os.RemoveAll(db.spillDir)
	}
}
