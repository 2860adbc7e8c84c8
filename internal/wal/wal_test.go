package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/relalg"
	"repro/internal/tuple"
)

func sampleRecords() []*Record {
	return []*Record{
		{Type: TypeBegin, TxID: 1},
		{Type: TypeInsert, TxID: 1, Table: "orders", Row: tuple.Tuple{tuple.Int(7), tuple.String_("widget")}},
		{Type: TypeDelete, TxID: 1, Table: "orders", Row: tuple.Tuple{tuple.Int(3), tuple.String_("gadget")}},
		{Type: TypeCommit, TxID: 1, CSN: 42, WallNanos: 1234567890},
		{Type: TypeBegin, TxID: 2},
		{Type: TypeAbort, TxID: 2},
	}
}

func recordsEqual(a, b *Record) bool {
	if a.Type != b.Type || a.TxID != b.TxID || a.Table != b.Table ||
		a.CSN != b.CSN || a.WallNanos != b.WallNanos {
		return false
	}
	if (a.Row == nil) != (b.Row == nil) {
		return false
	}
	return a.Row == nil || a.Row.Equal(b.Row)
}

func TestAppendAndRead(t *testing.T) {
	l, err := NewLog(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	r := l.NewReader(0)
	for i, want := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !recordsEqual(got, want) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); !errors.Is(err, ErrNoMore) {
		t.Fatalf("want ErrNoMore, got %v", err)
	}
}

func TestReaderFromOffset(t *testing.T) {
	l, _ := NewLog(NewMemDevice())
	var offs []int64
	for _, rec := range sampleRecords() {
		off, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	r := l.NewReader(offs[3])
	got, err := r.Next()
	if err != nil || got.Type != TypeCommit || got.CSN != 42 {
		t.Fatalf("reader from offset: %+v %v", got, err)
	}
}

// tornTailDevice is one Device backend the torn-tail recovery tests run
// over. open returns a fresh empty device plus two hooks: restart
// simulates a process restart after the crash, returning a device over the
// same bytes (the MemDevice itself; a FileDevice closed and reopened from
// its path), and stored reports how many bytes the backend holds (for a
// FileDevice, the file's size on disk).
type tornTailDevice struct {
	name string
	open func(t *testing.T) (dev Device, restart func() Device, stored func() int64)
}

func tornTailDevices() []tornTailDevice {
	return []tornTailDevice{
		{"mem", func(t *testing.T) (Device, func() Device, func() int64) {
			dev := NewMemDevice()
			return dev, func() Device { return dev }, dev.Size
		}},
		{"file", func(t *testing.T) (Device, func() Device, func() int64) {
			path := filepath.Join(t.TempDir(), "torn.wal")
			dev, err := OpenFileDevice(path)
			if err != nil {
				t.Fatal(err)
			}
			cur := dev
			t.Cleanup(func() { cur.Close() })
			restart := func() Device {
				if err := cur.Sync(); err != nil {
					t.Fatal(err)
				}
				if err := cur.Close(); err != nil {
					t.Fatal(err)
				}
				if cur, err = OpenFileDevice(path); err != nil {
					t.Fatal(err)
				}
				return cur
			}
			stored := func() int64 {
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				return fi.Size()
			}
			return dev, restart, stored
		}},
	}
}

// tornLog writes the sample records to a fresh device, appends a torn
// suffix, restarts, and recovers. It returns the recovered log, the size
// of the intact prefix, and the backend's stored-size hook.
func tornLog(t *testing.T, td tornTailDevice, torn []byte) (*Log, int64, func() int64) {
	dev, restart, stored := td.open(t)
	l, err := NewLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	goodSize := l.Size()
	if err := dev.Append(torn); err != nil {
		t.Fatal(err)
	}
	l2, err := NewLog(restart())
	if err != nil {
		t.Fatal(err)
	}
	return l2, goodSize, stored
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	for _, td := range tornTailDevices() {
		t.Run(td.name, func(t *testing.T) {
			// A torn write: a length header only, no payload.
			l2, goodSize, stored := tornLog(t, td, []byte{9, 0, 0, 0})
			if l2.Size() != goodSize {
				t.Fatalf("recovered size %d, want %d", l2.Size(), goodSize)
			}
			// The torn tail must be physically removed so new appends start
			// at a frame boundary instead of interleaving with the garbage
			// suffix.
			if got := stored(); got != goodSize {
				t.Fatalf("stored size %d after recovery, want torn tail truncated to %d", got, goodSize)
			}
			// All records readable up to the good size, and a fresh append
			// lands cleanly after them.
			if _, err := l2.Append(&Record{Type: TypeBegin, TxID: 77}); err != nil {
				t.Fatal(err)
			}
			r := l2.NewReader(0)
			count := 0
			var last *Record
			for {
				rec, err := r.Next()
				if errors.Is(err, ErrNoMore) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				last = rec
				count++
			}
			if count != len(sampleRecords())+1 {
				t.Fatalf("recovered %d records", count)
			}
			if last.Type != TypeBegin || last.TxID != 77 {
				t.Fatalf("post-recovery append mangled: %+v", last)
			}
		})
	}
}

func TestRecoveryTruncatesTornPayload(t *testing.T) {
	for _, td := range tornTailDevices() {
		t.Run(td.name, func(t *testing.T) {
			// A torn append that got the header plus part of the payload
			// down: the declared frame length runs past the device end.
			l2, goodSize, stored := tornLog(t, td, []byte{200, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
			if got := stored(); l2.Size() != goodSize || got != goodSize {
				t.Fatalf("recovered size %d stored %d, want both %d", l2.Size(), got, goodSize)
			}
		})
	}
}

func TestRecoveryFailsOnMidLogCorruption(t *testing.T) {
	dev := NewMemDevice()
	l, _ := NewLog(dev)
	var sizes []int64
	for _, rec := range sampleRecords() {
		l.Append(rec)
		sizes = append(sizes, l.Size())
	}
	// Corrupt a byte inside the 4th record's payload: the frame is fully
	// present, so this is damaged durable data, not a torn tail. Recovery
	// must refuse rather than silently drop the later committed records.
	dev.Corrupt(sizes[2] + frameHeader)
	_, err := NewLog(dev)
	if err == nil {
		t.Fatal("want error for mid-log corruption, got clean recovery")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %T", err)
	}
	if ce.Offset != sizes[2] {
		t.Fatalf("corrupt offset %d, want %d", ce.Offset, sizes[2])
	}
	// Nothing was truncated: the damaged evidence is preserved.
	if dev.Size() != sizes[len(sizes)-1] {
		t.Fatalf("device size changed to %d", dev.Size())
	}
}

func TestReaderReportsCorruptOffset(t *testing.T) {
	dev := NewMemDevice()
	l, _ := NewLog(dev)
	var offs []int64
	for _, rec := range sampleRecords() {
		off, _ := l.Append(rec)
		offs = append(offs, off)
	}
	dev.Corrupt(offs[1] + frameHeader)
	r := l.NewReader(0)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Next()
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Offset != offs[1] {
		t.Fatalf("want CorruptError at %d, got %v", offs[1], err)
	}
}

func TestBlockingReader(t *testing.T) {
	l, _ := NewLog(NewMemDevice())
	r := l.NewReader(0)
	var wg sync.WaitGroup
	wg.Add(1)
	var got *Record
	var err error
	go func() {
		defer wg.Done()
		got, err = r.NextBlocking()
	}()
	l.Append(&Record{Type: TypeBegin, TxID: 9})
	wg.Wait()
	if err != nil || got.TxID != 9 {
		t.Fatalf("blocking read: %+v %v", got, err)
	}
	// After close, a blocked reader must return ErrClosed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err = r.NextBlocking()
	}()
	l.Close()
	wg.Wait()
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	l, _ := NewLog(NewMemDevice())
	l.Close()
	if _, err := l.Append(&Record{Type: TypeBegin, TxID: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestCloseWithPendingDataDrainsFirst(t *testing.T) {
	l, _ := NewLog(NewMemDevice())
	l.Append(&Record{Type: TypeBegin, TxID: 5})
	l.Close()
	r := l.NewReader(0)
	rec, err := r.NextBlocking()
	if err != nil || rec.TxID != 5 {
		t.Fatalf("drain after close: %v %v", rec, err)
	}
	if _, err := r.NextBlocking(); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after drain, got %v", err)
	}
}

func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Reopen and verify recovery finds everything.
	dev2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	l2, err := NewLog(dev2)
	if err != nil {
		t.Fatal(err)
	}
	r := l2.NewReader(0)
	for i, want := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !recordsEqual(got, want) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestDecodeCorruptRecord(t *testing.T) {
	if _, err := decodeRecord(nil); err == nil {
		t.Fatal("empty payload should fail")
	}
	if _, err := decodeRecord([]byte{99, 1}); err == nil {
		t.Fatal("unknown type should fail")
	}
	if _, err := decodeRecord([]byte{byte(TypeInsert), 1, 50}); err == nil {
		t.Fatal("short insert should fail")
	}
	if _, err := decodeRecord([]byte{byte(TypeCommit), 1}); err == nil {
		t.Fatal("short commit should fail")
	}
}

func TestTypeString(t *testing.T) {
	for _, typ := range []Type{TypeBegin, TypeInsert, TypeDelete, TypeCommit, TypeAbort} {
		if typ.String() == "" {
			t.Fatal("empty name")
		}
	}
	if Type(200).String() != "Type(200)" {
		t.Fatal("unknown type formatting")
	}
}

func TestCommitCSNRoundTrip(t *testing.T) {
	l, _ := NewLog(NewMemDevice())
	l.Append(&Record{Type: TypeCommit, TxID: 3, CSN: relalg.CSN(-1), WallNanos: -5})
	rec, err := l.NewReader(0).Next()
	if err != nil || rec.CSN != -1 || rec.WallNanos != -5 {
		t.Fatalf("negative varint roundtrip: %+v %v", rec, err)
	}
}

func BenchmarkAppend(b *testing.B) {
	l, _ := NewLog(NewMemDevice())
	rec := &Record{Type: TypeInsert, TxID: 1, Table: "orders", Row: tuple.Tuple{tuple.Int(7), tuple.String_("widget")}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Append(rec)
	}
}
