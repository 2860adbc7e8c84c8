package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/fault"
)

// Device is the byte store underneath a Log: an append-only region that can
// also be read at arbitrary offsets (for tailing readers and recovery).
type Device interface {
	// Append writes p at the end of the device.
	Append(p []byte) error
	// ReadAt reads into p starting at offset off.
	ReadAt(p []byte, off int64) (int, error)
	// Size returns the current device length in bytes.
	Size() int64
	// Sync makes previous appends durable.
	Sync() error
	// Truncate cuts the device to n bytes (torn-tail repair on recovery).
	Truncate(n int64) error
	// Close releases the device.
	Close() error
}

// MemDevice is an in-memory Device used by tests, benchmarks, and purely
// in-process databases.
type MemDevice struct {
	mu  sync.RWMutex
	buf []byte
}

// NewMemDevice returns an empty in-memory device.
func NewMemDevice() *MemDevice { return &MemDevice{} }

// NewMemDeviceFrom returns an in-memory device seeded with a copy of buf —
// how crash-recovery tests reopen a crash image.
func NewMemDeviceFrom(buf []byte) *MemDevice {
	return &MemDevice{buf: append([]byte(nil), buf...)}
}

// Append implements Device.
func (d *MemDevice) Append(p []byte) error {
	d.mu.Lock()
	d.buf = append(d.buf, p...)
	d.mu.Unlock()
	return nil
}

// ReadAt implements Device.
func (d *MemDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if off >= int64(len(d.buf)) {
		return 0, io.EOF
	}
	n := copy(p, d.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Size implements Device.
func (d *MemDevice) Size() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.buf))
}

// Sync implements Device.
func (d *MemDevice) Sync() error { return nil }

// Close implements Device.
func (d *MemDevice) Close() error { return nil }

// Corrupt flips a byte at the given offset; used by recovery tests.
func (d *MemDevice) Corrupt(off int64) {
	d.mu.Lock()
	d.buf[off] ^= 0xFF
	d.mu.Unlock()
}

// Truncate implements Device.
func (d *MemDevice) Truncate(n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 || n > int64(len(d.buf)) {
		return fmt.Errorf("wal: truncate to %d outside device of %d bytes", n, len(d.buf))
	}
	d.buf = d.buf[:n]
	return nil
}

// FileDevice is a file-backed Device.
type FileDevice struct {
	mu   sync.Mutex
	f    *os.File
	size int64
}

// OpenFileDevice opens (creating if needed) a file-backed device.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileDevice{f: f, size: st.Size()}, nil
}

// Append implements Device.
func (d *FileDevice) Append(p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.f.WriteAt(p, d.size); err != nil {
		return err
	}
	d.size += int64(len(p))
	return nil
}

// ReadAt implements Device.
func (d *FileDevice) ReadAt(p []byte, off int64) (int, error) { return d.f.ReadAt(p, off) }

// Size implements Device.
func (d *FileDevice) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}

// Sync implements Device.
func (d *FileDevice) Sync() error { return d.f.Sync() }

// Truncate implements Device.
func (d *FileDevice) Truncate(n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.f.Truncate(n); err != nil {
		return err
	}
	d.size = n
	return nil
}

// Close implements Device.
func (d *FileDevice) Close() error { return d.f.Close() }

// frame layout: 4-byte little-endian payload length, 4-byte CRC32C of the
// payload, then the payload.
const frameHeader = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by blocking reads after the log is closed.
var ErrClosed = errors.New("wal: log closed")

// CorruptError reports mid-log corruption: a fully present frame whose CRC
// or payload fails to validate. Unlike a torn tail — an append cut short by
// a crash, which recovery silently truncates — corruption inside the log
// body means durable data was damaged, and replaying past it could silently
// lose committed transactions, so it surfaces as an error with the frame's
// byte offset. errors.Is(err, ErrCorrupt) matches.
type CorruptError struct{ Offset int64 }

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt record at byte offset %d", e.Offset)
}

// Unwrap lets errors.Is match ErrCorrupt.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// ErrIncomplete reports a clean short read at the log frontier: the bytes
// at the current offset are a prefix of a frame that has not finished
// arriving (a live tailer mid-ship, or a torn tail during recovery). It is
// the io.EOF of WAL streams — "not here yet", never "damaged". Checksum or
// payload violations on a fully present frame surface as *CorruptError
// instead; conflating the two would make a follower either stall forever on
// real corruption or replay past damaged committed data.
var ErrIncomplete = errors.New("wal: incomplete frame at log frontier")

// ReadFrameAt decodes the frame starting at byte offset off, considering
// only the device prefix [0, limit) (limit < 0 means the device's current
// size). It returns the record and the offset just past the frame.
//
// The two failure classes are kept strictly apart:
//
//   - ErrIncomplete: the frame's header or payload extends past limit. More
//     bytes may turn it into a valid frame; a tailer waits, recovery treats
//     it as a torn tail.
//   - *CorruptError: the frame is fully present inside the limit but its
//     CRC or payload fails to validate. Durable bytes were damaged; waiting
//     cannot fix it.
func ReadFrameAt(dev Device, off, limit int64) (*Record, int64, error) {
	if limit < 0 {
		limit = dev.Size()
	}
	if off+frameHeader > limit {
		return nil, off, ErrIncomplete
	}
	var hdr [frameHeader]byte
	if _, err := dev.ReadAt(hdr[:], off); err != nil {
		return nil, off, fmt.Errorf("wal: read header at %d: %w", off, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	next := off + frameHeader + int64(n)
	if next > limit {
		// The payload (or a garbage length field from a torn header write)
		// runs past the readable prefix: incomplete either way — if the
		// length field is garbage the eventual full frame fails its CRC.
		return nil, off, ErrIncomplete
	}
	payload := make([]byte, n)
	if n > 0 {
		if _, err := dev.ReadAt(payload, off+frameHeader); err != nil {
			return nil, off, fmt.Errorf("wal: read payload at %d: %w", off+frameHeader, err)
		}
	}
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, off, &CorruptError{Offset: off}
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return nil, off, &CorruptError{Offset: off}
	}
	return rec, next, nil
}

// Log is the append-only transaction log. Appends are serialized; any
// number of Readers may tail the log concurrently.
type Log struct {
	mu     sync.Mutex
	dev    Device
	size   int64 // committed log size (all complete frames)
	closed bool
	buf    []byte // append scratch buffer, reused under mu

	// gen is closed and replaced whenever the committed size grows or the
	// log closes, so blocked tailing readers wake; a channel generation
	// (instead of a sync.Cond) lets waits compose with contexts — the
	// capture drain on shutdown and network subscribers both need
	// cancellable blocking reads.
	gen chan struct{}
}

// NewLog creates a log on the given device, scanning existing content to
// find the end of the last complete, uncorrupted frame (recovery). A torn
// tail — a final append cut short by a crash — is truncated away so new
// appends start at a frame boundary instead of interleaving with the
// garbage suffix; corruption inside the log body fails with *CorruptError.
func NewLog(dev Device) (*Log, error) {
	l := &Log{dev: dev, gen: make(chan struct{})}
	end, torn, err := scanEnd(dev)
	if err != nil {
		return nil, err
	}
	if torn {
		if terr := dev.Truncate(end); terr != nil {
			return nil, fmt.Errorf("wal: truncating torn tail at %d: %w", end, terr)
		}
	}
	l.size = end
	return l, nil
}

// scanEnd walks frames from offset 0 and returns the offset just past the
// last valid frame, distinguishing the two ways a log can end badly:
//
//   - torn tail: the trailing bytes are too short to hold the frame they
//     started (header or payload runs past the end of the device). That is
//     the signature of an append interrupted by a crash; the partial frame
//     was never synced, so recovery treats it as "never happened" and the
//     caller truncates it.
//   - mid-log corruption: a frame is fully present but its CRC or payload
//     fails to validate. Durable bytes were damaged; silently stopping here
//     would drop every later committed transaction, so it is an error
//     carrying the bad frame's offset.
func scanEnd(dev Device) (end int64, torn bool, err error) {
	size := dev.Size()
	var off int64
	for {
		_, next, err := ReadFrameAt(dev, off, size)
		switch {
		case err == nil:
			off = next
		case errors.Is(err, ErrIncomplete):
			return off, off < size, nil
		case errors.Is(err, ErrCorrupt):
			return off, false, err
		default:
			return 0, false, fmt.Errorf("wal: recovery read at %d: %w", off, err)
		}
	}
}

// Append encodes and appends a record, returning the offset of the frame's
// first byte. It does not sync; call Sync for durability.
func (l *Log) Append(r *Record) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := fault.Inject(fault.PointWALAppend); err != nil {
		return 0, err
	}
	l.buf = l.buf[:0]
	l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	l.buf = r.encode(l.buf)
	payload := l.buf[frameHeader:]
	binary.LittleEndian.PutUint32(l.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[4:8], crc32.Checksum(payload, crcTable))
	off := l.size
	if err := l.dev.Append(l.buf); err != nil {
		return 0, err
	}
	l.size += int64(len(l.buf))
	l.broadcastLocked()
	return off, nil
}

// broadcastLocked wakes all blocked readers; the caller holds l.mu.
func (l *Log) broadcastLocked() {
	close(l.gen)
	l.gen = make(chan struct{})
}

// AppendShipped ingests raw replicated log bytes (a follower receiving the
// leader's WAL over the network). The bytes land on the device verbatim;
// the committed size then advances over every newly complete, valid frame,
// waking blocked readers. A trailing partial frame stays on the device
// (uncommitted) until the next shipment completes it — exactly the torn
// tail NewLog truncates if the process restarts first. A CRC or payload
// violation in a complete frame surfaces as *CorruptError: replicated
// bytes were damaged in flight or at rest, and replaying past them would
// silently diverge from the leader.
//
// It returns the committed size after the shipment. AppendShipped and
// Append must not be mixed on one log: a replica's log is written only by
// its shipping stream.
func (l *Log) AppendShipped(p []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.size, ErrClosed
	}
	if len(p) == 0 {
		return l.size, nil
	}
	if err := l.dev.Append(p); err != nil {
		return l.size, err
	}
	limit := l.dev.Size()
	advanced := false
	for {
		_, next, err := ReadFrameAt(l.dev, l.size, limit)
		if err != nil {
			if errors.Is(err, ErrIncomplete) {
				break
			}
			if advanced {
				l.broadcastLocked()
			}
			return l.size, err
		}
		l.size = next
		advanced = true
	}
	if advanced {
		l.broadcastLocked()
	}
	return l.size, nil
}

// DeviceSize returns the raw device length, including any uncommitted
// partial frame a shipping stream has buffered past the committed size.
// A follower resumes shipping from here so a mid-frame disconnect does not
// re-request bytes it already holds.
func (l *Log) DeviceSize() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dev.Size()
}

// ReadCommitted reads committed log bytes (complete frames only) starting
// at off. It returns the number of bytes read; n == 0 with a nil error
// means the reader has caught up with the committed frontier. The leader's
// WAL-ship handler streams the log to followers with it.
func (l *Log) ReadCommitted(p []byte, off int64) (int, error) {
	l.mu.Lock()
	size := l.size
	l.mu.Unlock()
	if off >= size {
		return 0, nil
	}
	if max := size - off; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := l.dev.ReadAt(p, off)
	if err == io.EOF && int64(n) == size-off {
		err = nil
	}
	return n, err
}

// Sync flushes the device.
func (l *Log) Sync() error {
	if err := fault.Inject(fault.PointWALSync); err != nil {
		return err
	}
	return l.dev.Sync()
}

// Size returns the log's current size in bytes (end of last complete frame).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close wakes all blocked readers and closes the device.
func (l *Log) Close() error {
	l.mu.Lock()
	l.closed = true
	l.broadcastLocked()
	l.mu.Unlock()
	return l.dev.Close()
}

// WaitBeyond blocks until the committed log extends past off, the log is
// closed (ErrClosed), or the context is done (ctx.Err()). Data available
// wins over close, so a drain loop alternating Next/WaitBeyond consumes
// every committed frame before seeing ErrClosed.
func (l *Log) WaitBeyond(ctx context.Context, off int64) error {
	for {
		l.mu.Lock()
		if l.size > off {
			l.mu.Unlock()
			return nil
		}
		if l.closed {
			l.mu.Unlock()
			return ErrClosed
		}
		ch := l.gen
		l.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Reader tails the log from a byte offset. It is not goroutine-safe; use
// one Reader per consumer.
type Reader struct {
	log *Log
	off int64
}

// NewReader returns a reader positioned at offset off (0 = start of log).
func (l *Log) NewReader(off int64) *Reader { return &Reader{log: l, off: off} }

// Offset returns the reader's current byte offset.
func (r *Reader) Offset() int64 { return r.off }

// ErrNoMore indicates the reader has consumed all complete frames.
var ErrNoMore = errors.New("wal: no more records")

// Next returns the next record without blocking. It returns ErrNoMore when
// the reader has caught up with the log's committed frontier; a frame that
// is complete but invalid inside that frontier is *CorruptError.
func (r *Reader) Next() (*Record, error) {
	r.log.mu.Lock()
	size := r.log.size
	r.log.mu.Unlock()
	rec, next, err := ReadFrameAt(r.log.dev, r.off, size)
	if err != nil {
		if errors.Is(err, ErrIncomplete) {
			// The committed size only ever covers whole frames, so a short
			// read here just means "caught up", never "mid-frame".
			return nil, ErrNoMore
		}
		return nil, err
	}
	r.off = next
	return rec, nil
}

// NextBlocking returns the next record, waiting for one to be appended if
// necessary. It returns ErrClosed once the log is closed and drained.
func (r *Reader) NextBlocking() (*Record, error) {
	return r.NextBlockingContext(context.Background())
}

// NextBlockingContext is NextBlocking with cancellation: it additionally
// returns ctx.Err() once the context is done. Network delta subscribers
// and the shutdown drain use it so a blocked tailer can be detached
// without closing the log.
func (r *Reader) NextBlockingContext(ctx context.Context) (*Record, error) {
	for {
		rec, err := r.Next()
		if err == nil {
			return rec, nil
		}
		if !errors.Is(err, ErrNoMore) {
			return nil, err
		}
		if err := r.log.WaitBeyond(ctx, r.off); err != nil {
			return nil, err
		}
	}
}
