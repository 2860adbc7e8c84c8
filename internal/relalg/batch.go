package relalg

import (
	"fmt"

	"repro/internal/tuple"
)

// Batch is the unit of data flow between streaming operators. The layout
// is columnar: per-column typed vectors (see column) plus parallel count
// and timestamp vectors, with an optional selection vector that narrows
// the batch to a subset of its physical rows without copying them.
//
// Ownership contract: a batch is filled by exactly one producer and then
// read by consumers. Consumers never append to a batch they received —
// they either read through the accessors, narrow it with a selection
// (Retain/FilterBatch), or permute its columns in place (ProjectInPlace).
// Producers reuse batches across calls via Reset, which keeps all column
// storage (including string dictionaries) for the next fill; sinks that
// retain data beyond the next Reset must copy it out (MaterializeInto,
// EncodeRowAt).
type Batch struct {
	ncols  int // arity; -1 until the first append fixes it
	cols   []column
	counts []int64
	tss    []CSN
	n      int // physical rows

	sel    []int32 // selection vector (physical indices); nil = all rows
	selBuf []int32

	scratch    tuple.Tuple // reused by the row-at-a-time predicate fallback
	colScratch []column    // ProjectInPlace swap space
	sink       batchSink
}

// emptySel is the shared non-nil empty selection Retain installs when it
// drops every row of a batch whose selBuf was never allocated: nil sel
// means "no selection, all rows visible", so the all-dropped result needs
// a distinct representation. Zero capacity, so it can never be written
// through — any later append reallocates.
var emptySel = []int32{}

// NewBatch returns an empty batch with the given row-capacity hint.
func NewBatch(capacity int) *Batch {
	return &Batch{
		ncols:  -1,
		counts: make([]int64, 0, capacity),
		tss:    make([]CSN, 0, capacity),
	}
}

// Reset clears the batch for reuse, keeping all storage.
func (b *Batch) Reset() {
	for c := range b.cols {
		b.cols[c].reset()
	}
	b.counts = b.counts[:0]
	b.tss = b.tss[:0]
	b.n = 0
	b.ncols = -1
	b.sel = nil
}

// Len returns the number of rows visible through the current selection.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// Arity returns the column count, or -1 for an empty batch that has not
// fixed one yet.
func (b *Batch) Arity() int { return b.ncols }

// phys maps a logical (selection-relative) row index to a physical one.
func (b *Batch) phys(i int) int {
	if b.sel != nil {
		return int(b.sel[i])
	}
	return i
}

func (b *Batch) setArity(k int) {
	if b.ncols == k {
		return
	}
	if b.ncols != -1 {
		panic(fmt.Sprintf("relalg: batch arity change %d -> %d", b.ncols, k))
	}
	for cap(b.cols) < k {
		b.cols = append(b.cols[:cap(b.cols)], column{})
	}
	b.cols = b.cols[:k]
	for c := range b.cols {
		b.cols[c].reset()
	}
	b.ncols = k
}

// Add appends one row given as a tuple plus its count and timestamp.
func (b *Batch) Add(t tuple.Tuple, count int64, ts CSN) {
	b.setArity(len(t))
	for c := range t {
		b.cols[c].appendValue(t[c])
	}
	b.counts = append(b.counts, count)
	b.tss = append(b.tss, ts)
	b.n++
}

// Append appends a Row.
func (b *Batch) Append(r Row) { b.Add(r.Tuple, r.Count, r.TS) }

// RowAt materializes row i as a Row. It allocates a fresh tuple; it is a
// boundary operation, not a kernel.
func (b *Batch) RowAt(i int) Row {
	p := b.phys(i)
	t := make(tuple.Tuple, b.ncols)
	for c := range t {
		t[c] = b.cols[c].valueAt(p)
	}
	return Row{Tuple: t, Count: b.counts[p], TS: b.tss[p]}
}

// ValueAt returns column c of row i.
func (b *Batch) ValueAt(i, c int) tuple.Value {
	return b.cols[c].valueAt(b.phys(i))
}

// CountAt returns the count of row i.
func (b *Batch) CountAt(i int) int64 {
	return b.counts[b.phys(i)]
}

// TSAt returns the timestamp of row i.
func (b *Batch) TSAt(i int) CSN {
	return b.tss[b.phys(i)]
}

// tupleInto fills dst with row i's values, growing it as needed, and
// returns it. The result aliases column storage: it is valid until the
// batch is Reset.
func (b *Batch) tupleInto(dst tuple.Tuple, i int) tuple.Tuple {
	p := b.phys(i)
	dst = dst[:0]
	for c := 0; c < b.ncols; c++ {
		dst = append(dst, b.cols[c].valueAt(p))
	}
	return dst
}

// AppendRowOf appends row i of src, copying column-wise.
func (b *Batch) AppendRowOf(src *Batch, i int) {
	p := src.phys(i)
	b.setArity(src.ncols)
	for c := range b.cols {
		b.cols[c].appendFrom(&src.cols[c], p)
	}
	b.counts = append(b.counts, src.counts[p])
	b.tss = append(b.tss, src.tss[p])
	b.n++
}

// AppendJoined appends the join combination of row li of l and row ri of
// r: concatenated columns, count product, min non-null timestamp
// (Section 3.3's combination rule), as a pure column move.
func (b *Batch) AppendJoined(l *Batch, li int, r *Batch, ri int) {
	count := l.CountAt(li) * r.CountAt(ri)
	ts := MinTS(l.TSAt(li), r.TSAt(ri))
	lp, rp := l.phys(li), r.phys(ri)
	b.setArity(l.ncols + r.ncols)
	for c := 0; c < l.ncols; c++ {
		b.cols[c].appendFrom(&l.cols[c], lp)
	}
	for c := 0; c < r.ncols; c++ {
		b.cols[l.ncols+c].appendFrom(&r.cols[c], rp)
	}
	b.counts = append(b.counts, count)
	b.tss = append(b.tss, ts)
	b.n++
}

// AppendConcatTuple appends row li of l concatenated with a bare probe
// tuple, keeping l's count and timestamp (the index-nested-loop path:
// probe results are base rows with no count/timestamp of their own).
func (b *Batch) AppendConcatTuple(l *Batch, li int, m tuple.Tuple) {
	count := l.CountAt(li)
	ts := l.TSAt(li)
	lp := l.phys(li)
	b.setArity(l.ncols + len(m))
	for c := 0; c < l.ncols; c++ {
		b.cols[c].appendFrom(&l.cols[c], lp)
	}
	for c, v := range m {
		b.cols[l.ncols+c].appendValue(v)
	}
	b.counts = append(b.counts, count)
	b.tss = append(b.tss, ts)
	b.n++
}

// ProjectInPlace permutes the batch onto the columns at idx without
// copying column data: projection is a column move. Duplicate indices
// (rare) force a copy of the later occurrence so no two columns alias
// the same storage. Counts, timestamps, and the selection are untouched.
func (b *Batch) ProjectInPlace(idx []int) {
	if b.ncols == -1 {
		b.setArity(len(idx))
		return
	}
	for cap(b.colScratch) < len(idx) {
		b.colScratch = append(b.colScratch[:cap(b.colScratch)], column{})
	}
	scratch := b.colScratch[:len(idx)]
	for j, c := range idx {
		dup := false
		for _, prev := range idx[:j] {
			if prev == c {
				dup = true
				break
			}
		}
		if !dup {
			scratch[j] = b.cols[c]
			continue
		}
		// Deep-copy the duplicate so appends after the next Reset cannot
		// write through two aliased columns at once.
		var cp column
		cp.reset()
		for p := 0; p < b.n; p++ {
			cp.appendFrom(&b.cols[c], p)
		}
		scratch[j] = cp
	}
	// Zero the outgoing structs: the moved ones now live in scratch and
	// share backing arrays with their old slots, so a later setArity that
	// re-extends this array into its cap region must find empty structs,
	// not aliases of live columns.
	for c := range b.cols {
		b.cols[c] = column{}
	}
	b.colScratch = b.cols[:0]
	b.cols = scratch
	b.ncols = len(idx)
}

// Retain narrows the selection to the logical rows for which keep
// returns true. keep receives logical (selection-relative) indices.
func (b *Batch) Retain(keep func(i int) bool) {
	n := b.Len()
	if b.sel == nil {
		b.selBuf = b.selBuf[:0]
		for i := 0; i < n; i++ {
			if keep(i) {
				b.selBuf = append(b.selBuf, int32(i))
			}
		}
		if len(b.selBuf) == n {
			return // nothing filtered; stay selection-free
		}
		b.sel = b.selBuf
		if b.sel == nil {
			// Every row was dropped before selBuf was ever allocated: a nil
			// sel means "no selection", so it must not represent "empty".
			b.sel = emptySel
		}
		return
	}
	k := 0
	for i := 0; i < n; i++ {
		if keep(i) {
			b.sel[k] = b.sel[i]
			k++
		}
	}
	b.sel = b.sel[:k]
}

// MaterializeInto appends every visible row to dst and returns it.
func (b *Batch) MaterializeInto(dst []Row) []Row {
	n := b.Len()
	for i := 0; i < n; i++ {
		dst = append(dst, b.RowAt(i))
	}
	return dst
}

// EncodeRowAt appends the row encoding (tuple.EncodeRow format) of row i
// to dst, serializing straight from column storage.
func (b *Batch) EncodeRowAt(dst []byte, i int) []byte {
	p := b.phys(i)
	dst = tuple.AppendRowArity(dst, b.ncols)
	for c := 0; c < b.ncols; c++ {
		dst = b.cols[c].encodeRowValue(dst, p)
	}
	return dst
}

// hashColsSeed is the seed every multi-column hash starts from (shared
// with the materializing join's hashCols in ops.go so row and columnar
// paths agree).
const hashColsSeed uint64 = 1469598103934665603

// HashAt hashes the named columns of row i, chaining per column exactly
// like hashCols over a materialized tuple.
func (b *Batch) HashAt(i int, cols []int) uint64 {
	p := b.phys(i)
	h := hashColsSeed
	for _, c := range cols {
		h = b.cols[c].hashAt(p, h)
	}
	return h
}

// colsEqualAt reports whether the acols of row ai in a equal the dcols of
// row di in d, under tuple.Equal semantics.
func colsEqualAt(a *Batch, ai int, acols []int, d *Batch, di int, dcols []int) bool {
	pa, pd := a.phys(ai), d.phys(di)
	for k := range acols {
		if !a.cols[acols[k]].equalAt(pa, &d.cols[dcols[k]], pd) {
			return false
		}
	}
	return true
}

// AppendDecodedRow decodes one tuple.EncodeRow payload directly into the
// batch's columns (strings interned into the column dictionaries without
// materializing a Tuple) and attaches the given count and timestamp. It
// returns the bytes remaining after the row.
func (b *Batch) AppendDecodedRow(enc []byte, count int64, ts CSN) ([]byte, error) {
	b.sink.b = b
	b.sink.err = nil
	rest, err := tuple.DecodeRowInto(enc, &b.sink)
	if err == nil {
		err = b.sink.err
	}
	if err != nil {
		return nil, err
	}
	b.counts = append(b.counts, count)
	b.tss = append(b.tss, ts)
	b.n++
	return rest, nil
}

// batchSink adapts a Batch to tuple.RowSink for AppendDecodedRow.
type batchSink struct {
	b   *Batch
	col int
	err error
}

func (s *batchSink) BeginRow(arity int) {
	s.col = 0
	if s.b.ncols == -1 {
		s.b.setArity(arity)
	} else if arity != s.b.ncols {
		s.err = fmt.Errorf("relalg: decoded arity %d, batch arity %d", arity, s.b.ncols)
	}
}

func (s *batchSink) next() *column {
	if s.err != nil {
		return nil
	}
	if s.col >= len(s.b.cols) {
		s.err = fmt.Errorf("relalg: decoded row wider than arity %d", s.b.ncols)
		return nil
	}
	c := &s.b.cols[s.col]
	s.col++
	return c
}

func (s *batchSink) PushNull() {
	if c := s.next(); c != nil {
		c.appendNull()
	}
}

func (s *batchSink) PushBool(v bool) {
	if c := s.next(); c != nil {
		c.appendBool(v)
	}
}

func (s *batchSink) PushInt(v int64) {
	if c := s.next(); c != nil {
		c.appendInt(v)
	}
}

func (s *batchSink) PushFloat(v float64) {
	if c := s.next(); c != nil {
		c.appendFloat(v)
	}
}

func (s *batchSink) PushString(p []byte) {
	if c := s.next(); c != nil {
		c.appendStringBytes(p)
	}
}

func (s *batchSink) PushBytes(p []byte) {
	if c := s.next(); c != nil {
		c.appendBytes(p)
	}
}

// Footprint returns the approximate resident bytes of the batch's
// storage (capacities, not fill levels), for arena accounting.
func (b *Batch) Footprint() int64 {
	n := int64(cap(b.counts))*8 + int64(cap(b.tss))*8 + int64(cap(b.selBuf))*4
	cols := b.cols[:cap(b.cols)]
	for c := range cols {
		n += cols[c].footprint()
	}
	return n
}

// Combine applies the paper's join combination rule to one pair of rows:
// concatenated tuple, product of counts, minimum of non-null timestamps
// (Section 3.3).
func Combine(l, r Row) Row {
	return Row{
		Tuple: tuple.Concat(l.Tuple, r.Tuple),
		Count: l.Count * r.Count,
		TS:    MinTS(l.TS, r.TS),
	}
}
