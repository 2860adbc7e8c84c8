package rollingjoin

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/capture"
	"repro/internal/fault"
	"repro/internal/relalg"
	"repro/internal/wal"
)

// Checkpoint writes a snapshot of the committed database state (base
// tables, base delta tables, and the commit counter) to path. A database
// restored from the snapshot replays only the log suffix written after it,
// instead of the whole log.
//
// The snapshot is taken quiescently: every view's propagation is suspended,
// capture is allowed to catch up, and the snapshot is written while the
// caller refrains from committing writes. View propagation restarts before
// Checkpoint returns. Concurrent writers during the snapshot itself are
// the caller's responsibility to avoid.
func (db *DB) Checkpoint(path string) error {
	if db.logCap == nil {
		return errors.New("rollingjoin: checkpointing requires log capture mode")
	}
	db.ensureCapture()

	resume, _, offset, err := db.quiesce()
	if err != nil {
		return err
	}
	defer resume()

	// Publish atomically: write and sync a temp file in the target
	// directory, rename it over the destination, then fsync the directory
	// so the rename itself is durable. A crash at any point leaves either
	// the old checkpoint or the new one — never a torn file at path.
	if err := fault.Inject(fault.PointCheckpointWrite); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := db.eng.WriteSnapshot(f, offset); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := fault.Inject(fault.PointCheckpointRename); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a preceding rename inside it survives a
// crash. Filesystems that refuse to sync directories are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// Restore loads a snapshot written by Checkpoint into a freshly opened
// database whose catalog (tables, indexes) has been re-created, then
// replays the log suffix past the snapshot offset and points the capture
// process there. Call it instead of Recover when a snapshot exists:
//
//	db, _ := rollingjoin.Open(rollingjoin.Options{WALPath: wal})
//	createCatalog(db)
//	db.Restore("snap.ckpt")
//	// define views, resume work
//
// Wall-clock lookup (RefreshToTime, CSNAt) only covers commits captured
// after the restore; point-in-time refresh by CSN is unaffected.
func (db *DB) Restore(path string) (CSN, error) {
	if db.logCap == nil {
		return 0, errors.New("rollingjoin: restore requires log capture mode")
	}
	if db.logCap.Started() {
		return 0, errors.New("rollingjoin: restore must run before any view definition or Source access")
	}
	if err := fault.Inject(fault.PointRestore); err != nil {
		return 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	offset, err := db.eng.ReadSnapshot(f)
	if err != nil {
		return 0, fmt.Errorf("rollingjoin: restore: %w", err)
	}
	// Redo the log suffix into the base tables.
	if _, err := db.eng.RecoverFrom(offset); err != nil {
		return 0, err
	}
	// Claim the capture start only now that the snapshot is loaded: a
	// failed Restore must leave the lazy start usable (the caller may fall
	// back to Recover plus normal capture). The stale reader positioned at
	// offset 0 is replaced with one pointed past the snapshot, its progress
	// notifications re-wired to the maintenance scheduler, and started.
	db.claimCapture()
	db.logCap = capture.NewLogCaptureAt(db.eng, offset, db.eng.LastCSN())
	db.src = db.logCap
	db.logCap.OnProgress(func(csn relalg.CSN) { db.sched.Notify(csn) })
	db.logCap.Start()
	return db.eng.LastCSN(), nil
}

// quiesce suspends every maintained relation's propagation and the background
// fold job, waits for capture to reflect every commit, and returns the
// commit horizon and log offset the checkpoint will cover, plus a resume
// function restarting what was suspended. The fold job must not run
// concurrently with a checkpoint write: a fold could prune delta rows out
// of the window an incremental link is serializing.
func (db *DB) quiesce() (resume func(), last CSN, offset int64, err error) {
	rels := db.relations()
	var suspended []*maintained
	resume = func() {
		for _, m := range suspended {
			m.StartPropagation()
		}
	}
	for _, m := range rels {
		if m.Maintaining() {
			if serr := m.StopPropagation(); serr != nil {
				resume()
				return nil, 0, 0, serr
			}
			suspended = append(suspended, m)
		}
	}
	if db.fold != nil && db.fold.Running() {
		if serr := db.fold.Stop(); serr != nil {
			resume()
			return nil, 0, 0, serr
		}
		inner := resume
		resume = func() {
			db.fold.Start()
			inner()
		}
	}

	// Base deltas must reflect every commit the snapshot will include.
	last = db.eng.LastCSN()
	if werr := db.logCap.WaitProgress(last); werr != nil {
		resume()
		return nil, 0, 0, werr
	}
	return resume, last, db.eng.Log().Size(), nil
}

// chainLinkName is the file name of chain link seq within a chain
// directory. Six digits keep lexical order equal to sequence order.
func chainLinkName(seq uint64) string { return fmt.Sprintf("%06d.link", seq) }

// readChainDir loads and validates the checkpoint chain stored as one
// frame per %06d.link file in dir. A missing directory is an empty chain;
// any corrupt, truncated, or discontinuous link fails with wal.ErrBadChain.
func readChainDir(dir string) ([]*wal.ChainLink, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".link") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	links := make([]*wal.ChainLink, 0, len(names))
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		l, used, err := wal.DecodeLink(data)
		if err != nil {
			return nil, err
		}
		if used != len(data) {
			return nil, fmt.Errorf("%w: trailing bytes after link %s", wal.ErrBadChain, n)
		}
		links = append(links, l)
	}
	if err := wal.ValidateChain(links); err != nil {
		return nil, err
	}
	return links, nil
}

// CheckpointIncremental appends one link to the checkpoint chain stored in
// dir, creating the chain (a FULL link: a complete snapshot) if the
// directory is empty. Subsequent calls write DELTA links carrying only the
// delta window committed since the previous link, so steady-state
// checkpoint cost is proportional to the change since the last checkpoint
// rather than the database size.
//
// Each link publishes atomically (temp file, fsync, rename, directory
// fsync), so a crash mid-checkpoint leaves the previous chain intact. The
// chain self-heals: if the delta window a DELTA link needs has been folded
// away (a fold pass ran past the chain tail before the tail was pinned —
// e.g. the chain predates this process), the call falls back to starting a
// fresh chain with a FULL link. After a successful link the chain tail is
// pinned in the storage horizon ledger so folding never outruns the next
// link's window.
func (db *DB) CheckpointIncremental(dir string) error {
	if db.logCap == nil {
		return errors.New("rollingjoin: checkpointing requires log capture mode")
	}
	db.ensureCapture()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	resume, last, offset, err := db.quiesce()
	if err != nil {
		return err
	}
	defer resume()

	links, err := readChainDir(dir)
	if err != nil && !errors.Is(err, wal.ErrBadChain) {
		return err
	}
	// A corrupt chain (err != nil) restarts with a FULL link, same as an
	// empty directory.
	kind := uint8(wal.ChainFull)
	var from CSN
	seq := uint64(1)
	if err == nil && len(links) > 0 {
		tail := links[len(links)-1]
		from = CSN(tail.To)
		seq = tail.Seq + 1
		kind = wal.ChainDelta
		if from > last {
			// The chain is ahead of this database's history (stale dir).
			kind = wal.ChainFull
		}
	}
	if kind == wal.ChainDelta {
		// Self-healing: a DELTA link is only sound if every base delta
		// still holds the full window (from, last]. The fold job prunes
		// through the ledger floor, and the "checkpoint" pin holds that at
		// or below the chain tail — but a chain inherited from a previous
		// process was never pinned here, so verify rather than trust.
		for _, t := range db.eng.TableNames() {
			d, derr := db.eng.Delta(t)
			if derr != nil {
				continue
			}
			if d.PrunedThrough() > from {
				kind = wal.ChainFull
				break
			}
		}
	}
	if kind == wal.ChainFull {
		seq, from = 1, 0
	}

	var payload bytes.Buffer
	if kind == wal.ChainFull {
		if err := db.eng.WriteSnapshot(&payload, offset); err != nil {
			return err
		}
	} else {
		if err := db.eng.WriteDeltaWindow(&payload, from, last); err != nil {
			return err
		}
	}
	frame := wal.EncodeLink(nil, &wal.ChainLink{
		Seq: seq, Kind: kind,
		From: uint64(from), To: uint64(last),
		Offset: uint64(offset), Payload: payload.Bytes(),
	})

	if err := fault.Inject(fault.PointChainWrite); err != nil {
		return err
	}
	tmp := filepath.Join(dir, chainLinkName(seq)+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}

	if kind == wal.ChainFull && len(links) > 0 {
		// Restarting the chain: retire stale links highest-seq first, so a
		// crash mid-removal still leaves a contiguous (old) chain prefix —
		// always restorable together with the intact log suffix.
		for i := len(links) - 1; i >= 0; i-- {
			if links[i].Seq == 1 {
				continue // about to be renamed over
			}
			os.Remove(filepath.Join(dir, chainLinkName(links[i].Seq)))
		}
		if err := syncDir(dir); err != nil {
			os.Remove(tmp)
			return err
		}
	}

	if err := fault.Inject(fault.PointChainRename); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, chainLinkName(seq))); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	// Pin the chain tail: the next DELTA link serializes (last, ...], so
	// folding must not reclaim delta rows above last until then.
	db.eng.Horizons().Pin("checkpoint", last)
	return nil
}

// RestoreChain loads an incremental checkpoint chain written by
// CheckpointIncremental into a freshly opened database whose catalog has
// been re-created: it reads the snapshot of the most recent FULL link,
// replays each subsequent DELTA link's window, redoes the log suffix past
// the final link's offset, and points the capture process there. The same
// preconditions as Restore apply.
func (db *DB) RestoreChain(dir string) (CSN, error) {
	if db.logCap == nil {
		return 0, errors.New("rollingjoin: restore requires log capture mode")
	}
	if db.logCap.Started() {
		return 0, errors.New("rollingjoin: restore must run before any view definition or Source access")
	}
	if err := fault.Inject(fault.PointRestore); err != nil {
		return 0, err
	}
	links, err := readChainDir(dir)
	if err != nil {
		return 0, fmt.Errorf("rollingjoin: restore chain: %w", err)
	}
	if len(links) == 0 {
		return 0, errors.New("rollingjoin: restore chain: no checkpoint links")
	}
	// Start from the most recent FULL link; earlier links are superseded.
	start := 0
	for i, l := range links {
		if l.Kind == wal.ChainFull {
			start = i
		}
	}
	if _, err := db.eng.ReadSnapshot(bytes.NewReader(links[start].Payload)); err != nil {
		return 0, fmt.Errorf("rollingjoin: restore chain: %w", err)
	}
	for _, l := range links[start+1:] {
		if err := db.eng.ApplyDeltaWindow(bytes.NewReader(l.Payload), relalg.CSN(l.To)); err != nil {
			return 0, fmt.Errorf("rollingjoin: restore chain link %d: %w", l.Seq, err)
		}
	}
	tail := links[len(links)-1]
	offset := int64(tail.Offset)
	if _, err := db.eng.RecoverFrom(offset); err != nil {
		return 0, err
	}
	db.claimCapture()
	db.logCap = capture.NewLogCaptureAt(db.eng, offset, db.eng.LastCSN())
	db.src = db.logCap
	db.logCap.OnProgress(func(csn relalg.CSN) { db.sched.Notify(csn) })
	db.logCap.Start()
	// Future DELTA links resume from the tail; keep its window foldable no
	// further than the tail so the next CheckpointIncremental stays
	// incremental.
	db.eng.Horizons().Pin("checkpoint", CSN(tail.To))
	return db.eng.LastCSN(), nil
}
