package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/relalg"
	"repro/internal/tuple"
)

// This file implements checkpointing: a snapshot of the committed database
// state (base tables, delta tables, commit counter, and the log offset the
// snapshot corresponds to). Restoring a snapshot and replaying the log
// suffix past its offset reproduces the full state without rereading the
// whole log — the standard checkpoint/redo recovery structure.
//
// Snapshots must be taken quiescently: no in-flight write transactions and
// capture caught up to the last commit. The facade arranges this by
// suspending view propagation and holding table S locks.

const (
	snapshotMagic   = 0x524a4c53 // "RJLS"
	snapshotVersion = 1
)

var errBadSnapshot = errors.New("engine: corrupt snapshot")

type crcWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crcTableIEEE, p)
	return cw.w.Write(p)
}

var crcTableIEEE = crc32.MakeTable(crc32.IEEE)

func newCRCWriter(w io.Writer) *crcWriter { return &crcWriter{w: bufio.NewWriter(w)} }

func newCRCReader(r io.Reader) *crcReader { return &crcReader{r: bufio.NewReader(r)} }

func writeUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeBytes(w io.Writer, b []byte) error {
	if err := writeUvarint(w, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// WriteSnapshot serializes the current committed state to w. logOffset is
// the WAL position the snapshot corresponds to (everything at or before it
// is included; records after it must be replayed on restore).
func (db *DB) WriteSnapshot(w io.Writer, logOffset int64) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}

	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], snapshotVersion)
	if _, err := cw.Write(hdr[:8]); err != nil {
		return err
	}
	if err := writeUvarint(cw, uint64(logOffset)); err != nil {
		return err
	}
	if err := writeUvarint(cw, uint64(db.LastCSN())); err != nil {
		return err
	}

	// Base tables, sorted for determinism.
	names := db.TableNames()
	if err := writeUvarint(cw, uint64(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		if err := writeBytes(cw, []byte(name)); err != nil {
			return err
		}
		rel := t.scan(nil)
		if err := writeUvarint(cw, uint64(rel.Len())); err != nil {
			return err
		}
		for _, row := range rel.Rows {
			if err := writeBytes(cw, tuple.EncodeRow(nil, row.Tuple)); err != nil {
				return err
			}
		}
	}

	// Base-table delta tables only: view delta tables are derived data,
	// recreated when views are redefined after a restore.
	db.mu.RLock()
	dnames := make([]string, 0, len(db.deltas))
	for n := range db.deltas {
		if _, isBase := db.tables[n]; isBase {
			dnames = append(dnames, n)
		}
	}
	db.mu.RUnlock()
	sort.Strings(dnames)
	if err := writeUvarint(cw, uint64(len(dnames))); err != nil {
		return err
	}
	for _, name := range dnames {
		db.mu.RLock()
		d := db.deltas[name]
		db.mu.RUnlock()
		if err := writeBytes(cw, []byte(name)); err != nil {
			return err
		}
		rel := d.All()
		if err := writeUvarint(cw, uint64(rel.Len())); err != nil {
			return err
		}
		for _, row := range rel.Rows {
			if err := writeUvarint(cw, uint64(row.TS)); err != nil {
				return err
			}
			var cnt [binary.MaxVarintLen64]byte
			n := binary.PutVarint(cnt[:], row.Count)
			if _, err := cw.Write(cnt[:n]); err != nil {
				return err
			}
			if err := writeBytes(cw, tuple.EncodeRow(nil, row.Tuple)); err != nil {
				return err
			}
		}
	}

	// Trailing CRC of everything written so far.
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.crc)
	if _, err := bw.Write(tail[:]); err != nil {
		return err
	}
	return bw.Flush()
}

type crcReader struct {
	r   *bufio.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crcTableIEEE, p[:n])
	return n, err
}

func (cr *crcReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err == nil {
		cr.crc = crc32.Update(cr.crc, crcTableIEEE, []byte{b})
	}
	return b, err
}

func readBytes(r *crcReader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	// Guard against corrupt length fields before allocating.
	const maxChunk = 1 << 30
	if n > maxChunk {
		return nil, fmt.Errorf("%w: chunk length %d", errBadSnapshot, n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// ReadSnapshot restores a snapshot into the database. The catalog (tables,
// deltas, indexes) must already be re-created and empty. It returns the
// log offset the snapshot corresponds to; the caller replays the log from
// there (RecoverFrom) and points the capture process past it.
func (db *DB) ReadSnapshot(r io.Reader) (int64, error) {
	cr := &crcReader{r: bufio.NewReader(r)}
	var hdr [8]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != snapshotMagic {
		return 0, fmt.Errorf("%w: bad magic", errBadSnapshot)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != snapshotVersion {
		return 0, fmt.Errorf("%w: unsupported version %d", errBadSnapshot, v)
	}
	logOffset, err := binary.ReadUvarint(cr)
	if err != nil {
		return 0, err
	}
	lastCSN, err := binary.ReadUvarint(cr)
	if err != nil {
		return 0, err
	}

	ntables, err := binary.ReadUvarint(cr)
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < ntables; i++ {
		name, err := readBytes(cr)
		if err != nil {
			return 0, err
		}
		t, err := db.Table(string(name))
		if err != nil {
			return 0, fmt.Errorf("engine: snapshot references unknown table %q; recreate the catalog first", name)
		}
		rows, err := binary.ReadUvarint(cr)
		if err != nil {
			return 0, err
		}
		for j := uint64(0); j < rows; j++ {
			raw, err := readBytes(cr)
			if err != nil {
				return 0, err
			}
			row, _, err := tuple.DecodeRow(raw)
			if err != nil {
				return 0, err
			}
			t.putCommitted(row)
		}
	}

	ndeltas, err := binary.ReadUvarint(cr)
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < ndeltas; i++ {
		name, err := readBytes(cr)
		if err != nil {
			return 0, err
		}
		db.mu.RLock()
		d := db.deltas[string(name)]
		db.mu.RUnlock()
		if d == nil {
			return 0, fmt.Errorf("engine: snapshot references unknown delta %q; recreate the catalog first", name)
		}
		rows, err := binary.ReadUvarint(cr)
		if err != nil {
			return 0, err
		}
		for j := uint64(0); j < rows; j++ {
			ts, err := binary.ReadUvarint(cr)
			if err != nil {
				return 0, err
			}
			count, err := binary.ReadVarint(cr)
			if err != nil {
				return 0, err
			}
			raw, err := readBytes(cr)
			if err != nil {
				return 0, err
			}
			row, _, err := tuple.DecodeRow(raw)
			if err != nil {
				return 0, err
			}
			d.Append(relalg.CSN(ts), count, row)
		}
	}

	// Verify the CRC: everything read so far hashed, compare to trailer.
	sum := cr.crc
	var tail [4]byte
	if _, err := io.ReadFull(cr.r, tail[:]); err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint32(tail[:]) != sum {
		return 0, fmt.Errorf("%w: checksum mismatch", errBadSnapshot)
	}

	db.tm.Recover(relalg.CSN(lastCSN))
	return int64(logOffset), nil
}

// RecoverFrom replays committed transactions from the given log offset into
// the base tables — the redo phase after loading a snapshot. Offset 0 is
// equivalent to Recover.
func (db *DB) RecoverFrom(offset int64) (relalg.CSN, error) {
	return db.recover(offset)
}

// WriteDeltaWindow serializes every base-relation delta record in the
// window (lo, hi] to w — the payload of an incremental-checkpoint DELTA
// link, so checkpoint cost is proportional to the change since the last
// link rather than the database size. Base tables only: view deltas are
// derived data, rebuilt when views are redefined. The caller must hold the
// system quiescent (capture caught up through hi, no in-flight writers),
// the same discipline as WriteSnapshot, and must have verified that no
// base delta has been pruned above lo.
func (db *DB) WriteDeltaWindow(w io.Writer, lo, hi relalg.CSN) error {
	db.mu.RLock()
	dnames := make([]string, 0, len(db.deltas))
	for n := range db.deltas {
		if _, isBase := db.tables[n]; isBase {
			dnames = append(dnames, n)
		}
	}
	db.mu.RUnlock()
	sort.Strings(dnames)
	if err := writeUvarint(w, uint64(len(dnames))); err != nil {
		return err
	}
	for _, name := range dnames {
		db.mu.RLock()
		d := db.deltas[name]
		db.mu.RUnlock()
		if err := writeBytes(w, []byte(name)); err != nil {
			return err
		}
		nrows := 0
		if err := d.WindowEach(lo, hi, func(relalg.CSN, int64, []byte) error {
			nrows++
			return nil
		}); err != nil {
			return err
		}
		if err := writeUvarint(w, uint64(nrows)); err != nil {
			return err
		}
		var werr error
		if err := d.WindowEach(lo, hi, func(ts relalg.CSN, count int64, encRow []byte) error {
			if werr = writeUvarint(w, uint64(ts)); werr != nil {
				return werr
			}
			var cnt [binary.MaxVarintLen64]byte
			n := binary.PutVarint(cnt[:], count)
			if _, werr = w.Write(cnt[:n]); werr != nil {
				return werr
			}
			return writeBytes(w, encRow)
		}); err != nil {
			return err
		}
	}
	return nil
}

// ApplyDeltaWindow replays a delta-window payload (WriteDeltaWindow) into
// the database: each record lands in its base table's heap (insert or
// delete) and in the delta table, reproducing both the committed state and
// the capture state at the window's upper bound — the redo step for one
// DELTA link of an incremental checkpoint chain. toCSN is the window's
// upper bound; the commit counter resumes past it.
func (db *DB) ApplyDeltaWindow(r io.Reader, toCSN relalg.CSN) error {
	cr := &crcReader{r: bufio.NewReader(r)}
	ndeltas, err := binary.ReadUvarint(cr)
	if err != nil {
		return err
	}
	for i := uint64(0); i < ndeltas; i++ {
		name, err := readBytes(cr)
		if err != nil {
			return err
		}
		t, err := db.Table(string(name))
		if err != nil {
			return fmt.Errorf("engine: delta window references unknown table %q; recreate the catalog first", name)
		}
		db.mu.RLock()
		d := db.deltas[string(name)]
		db.mu.RUnlock()
		if d == nil {
			return fmt.Errorf("engine: delta window references unknown delta %q; recreate the catalog first", name)
		}
		nrows, err := binary.ReadUvarint(cr)
		if err != nil {
			return err
		}
		for j := uint64(0); j < nrows; j++ {
			ts, err := binary.ReadUvarint(cr)
			if err != nil {
				return err
			}
			count, err := binary.ReadVarint(cr)
			if err != nil {
				return err
			}
			raw, err := readBytes(cr)
			if err != nil {
				return err
			}
			row, _, err := tuple.DecodeRow(raw)
			if err != nil {
				return err
			}
			d.Append(relalg.CSN(ts), count, row)
			for c := count; c > 0; c-- {
				t.putCommitted(row)
			}
			for c := count; c < 0; c++ {
				if !t.removeMatching(row) {
					return fmt.Errorf("engine: delta window deletes missing row %s in %q", row, name)
				}
			}
		}
	}
	if toCSN > db.LastCSN() {
		db.tm.Recover(toCSN)
	}
	return nil
}
