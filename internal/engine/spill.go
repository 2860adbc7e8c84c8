package engine

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fault"
	"repro/internal/relalg"
)

// This file implements the cold-spill tier: derived-view images untouched
// for a configurable window serialize to disk (reusing the tuple row
// encodings the btrees and delta tables store) and reload lazily on next
// access. Spill files are volatile per-process state: the facade creates a
// fresh spill directory per instance, so a restarted process never
// consults a predecessor's files — after a crash, images are
// rematerialized, the same as before spill existed. A derived image is NOT
// reconstructible in-process once its delta prefix has been folded away,
// so loads validate strictly (magic, image time, CRC) and surface
// ErrSpillLost on failure.
const (
	spillMagic   = 0x524a5350 // "RJSP"
	spillVersion = 1

	spillKindImage = 1 // derived-view base image
)

// errBadSpill marks a structurally invalid spill file.
var errBadSpill = errors.New("engine: corrupt spill file")

// ErrSpillLost is returned when a spilled derived image cannot be read
// back: the in-memory copy was dropped at spill time and the delta prefix
// below the image time may already be folded away, so the state is not
// reconstructible in-process (a restart rematerializes the view).
var ErrSpillLost = errors.New("engine: spilled derived image unreadable")

// writeSpillFile atomically publishes a spill file: body streams the
// payload through a CRC-accumulating writer, the checksum lands in the
// trailer, and the file appears under its final name only via rename.
// Returns the published file's size.
func writeSpillFile(path string, body func(cw *crcWriter) error) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".spill-*")
	if err != nil {
		return 0, err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	cw := newCRCWriter(tmp)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], spillMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], spillVersion)
	if _, err := cw.Write(hdr[:]); err != nil {
		return 0, err
	}
	if err := body(cw); err != nil {
		return 0, err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.crc)
	if _, err := cw.w.Write(tail[:]); err != nil {
		return 0, err
	}
	if err := cw.w.Flush(); err != nil {
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		return 0, err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return 0, err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// readSpillFile opens a spill file, validates the header, streams the
// payload through body, and verifies the CRC trailer.
func readSpillFile(path string, body func(cr *crcReader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cr := newCRCReader(f)
	var hdr [8]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != spillMagic {
		return fmt.Errorf("%w: bad magic", errBadSpill)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != spillVersion {
		return fmt.Errorf("%w: unsupported version %d", errBadSpill, v)
	}
	if err := body(cr); err != nil {
		return err
	}
	sum := cr.crc
	var tail [4]byte
	if _, err := io.ReadFull(cr.r, tail[:]); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(tail[:]) != sum {
		return fmt.Errorf("%w: checksum mismatch", errBadSpill)
	}
	return nil
}

// spillFileName maps an object name to a stable, filesystem-safe file name
// (view and table names are caller-chosen strings).
func spillFileName(dir, kind, name string) string {
	return filepath.Join(dir, kind+"-"+hex.EncodeToString([]byte(name))+".rjsp")
}

// SpillIdle serializes the derived-view images untouched since cutoff into
// dir and drops the in-memory copies, returning how many images were
// spilled. Spilled images reload lazily on next access.
func (db *DB) SpillIdle(dir string, cutoff time.Time) (int, error) {
	db.mu.RLock()
	dvs := make([]*Derived, 0, len(db.derived))
	for _, dv := range db.derived {
		dvs = append(dvs, dv)
	}
	db.mu.RUnlock()
	n := 0
	for _, dv := range dvs {
		bytes, err := dv.SpillIfIdle(dir, cutoff)
		if err != nil {
			return n, err
		}
		if bytes > 0 {
			n++
		}
	}
	return n, nil
}

// imageResidentBytes reports the current in-memory footprint of derived
// base images (spilled images count zero until reloaded).
func (db *DB) imageResidentBytes() int64 {
	db.mu.RLock()
	dvs := make([]*Derived, 0, len(db.derived))
	for _, dv := range db.derived {
		dvs = append(dvs, dv)
	}
	db.mu.RUnlock()
	var total int64
	for _, dv := range dvs {
		dv.mu.RLock()
		for k := range dv.image {
			total += int64(len(k)) + imageEntryOverhead
		}
		dv.mu.RUnlock()
	}
	return total
}

// imageEntryOverhead approximates the per-entry container cost of an image
// map entry (count plus string header) for the resident-bytes gauge.
const imageEntryOverhead = 24

// Spilled reports whether the derived image is currently on disk.
func (dv *Derived) Spilled() bool {
	dv.mu.RLock()
	defer dv.mu.RUnlock()
	return dv.spilled
}

// SpillIfIdle serializes the derived image to dir and drops it from memory
// when the relation has not been touched since cutoff. Returns the bytes
// written (0 when the image was hot, empty, or already spilled).
func (dv *Derived) SpillIfIdle(dir string, cutoff time.Time) (int64, error) {
	if dv.lastTouch.Load() >= cutoff.UnixNano() {
		return 0, nil
	}
	dv.mu.Lock()
	defer dv.mu.Unlock()
	if dv.spilled || len(dv.image) == 0 || dv.lastTouch.Load() >= cutoff.UnixNano() {
		return 0, nil
	}
	if err := fault.Inject(fault.PointSpillWrite); err != nil {
		return 0, err
	}
	path := spillFileName(dir, "img", dv.name)
	size, err := writeSpillFile(path, func(cw *crcWriter) error {
		if err := writeUvarint(cw, spillKindImage); err != nil {
			return err
		}
		if err := writeBytes(cw, []byte(dv.name)); err != nil {
			return err
		}
		if err := writeUvarint(cw, uint64(dv.imageTime)); err != nil {
			return err
		}
		if err := writeUvarint(cw, uint64(len(dv.image))); err != nil {
			return err
		}
		var cnt [binary.MaxVarintLen64]byte
		for k, c := range dv.image {
			if err := writeBytes(cw, []byte(k)); err != nil {
				return err
			}
			n := binary.PutVarint(cnt[:], c)
			if _, err := cw.Write(cnt[:n]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	dv.image = nil
	dv.spilled = true
	dv.spillPath = path
	if dv.db != nil {
		dv.db.noteSpill(size)
	}
	return size, nil
}

// loadLocked reads a spilled image back into memory. The caller holds
// dv.mu in write mode. A spilled image that cannot be read back is lost
// state (see ErrSpillLost): the delta prefix below the image time may be
// folded away, so there is nothing to rebuild from in-process.
func (dv *Derived) loadLocked() error {
	if !dv.spilled {
		return nil
	}
	if err := fault.Inject(fault.PointSpillLoad); err != nil {
		return err
	}
	img := make(map[string]int64)
	err := readSpillFile(dv.spillPath, func(cr *crcReader) error {
		kind, err := binary.ReadUvarint(cr)
		if err != nil {
			return err
		}
		if kind != spillKindImage {
			return fmt.Errorf("%w: kind %d, want image", errBadSpill, kind)
		}
		name, err := readBytes(cr)
		if err != nil {
			return err
		}
		if string(name) != dv.name {
			return fmt.Errorf("%w: image for %q, want %q", errBadSpill, name, dv.name)
		}
		at, err := binary.ReadUvarint(cr)
		if err != nil {
			return err
		}
		if relalg.CSN(at) != dv.imageTime {
			return fmt.Errorf("%w: image at CSN %d, want %d", errBadSpill, at, dv.imageTime)
		}
		n, err := binary.ReadUvarint(cr)
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			k, err := readBytes(cr)
			if err != nil {
				return err
			}
			c, err := binary.ReadVarint(cr)
			if err != nil {
				return err
			}
			img[string(k)] = c
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("%w: %q: %v", ErrSpillLost, dv.name, err)
	}
	dv.image = img
	dv.spilled = false
	os.Remove(dv.spillPath)
	dv.spillPath = ""
	if dv.db != nil {
		dv.db.noteColdLoad()
	}
	return nil
}

// touch stamps the derived relation as recently used.
func (dv *Derived) touch() { dv.lastTouch.Store(time.Now().UnixNano()) }
