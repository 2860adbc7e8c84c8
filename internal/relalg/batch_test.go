package relalg

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/tuple"
)

// testRows returns a mixed-kind row set exercising every column code
// path: uniform ints, dictionary strings with repeats, floats with NaN,
// nulls, bools, and raw bytes.
func testRows() []Row {
	mk := func(vs ...tuple.Value) tuple.Tuple { return tuple.Tuple(vs) }
	return []Row{
		{Tuple: mk(tuple.Int(1), tuple.String_("red"), tuple.Float(1.5), tuple.Bool(true), tuple.Bytes([]byte{0x00, 0x01})), Count: 1, TS: 10},
		{Tuple: mk(tuple.Int(2), tuple.String_("blue"), tuple.Float(-2.25), tuple.Bool(false), tuple.Bytes(nil)), Count: -2, TS: NullTS},
		{Tuple: mk(tuple.Int(3), tuple.String_("red"), tuple.Float(math.NaN()), tuple.Null(), tuple.Bytes([]byte("xyz"))), Count: 3, TS: 7},
		{Tuple: mk(tuple.Int(-9), tuple.String_(""), tuple.Float(0), tuple.Bool(true), tuple.Bytes([]byte{0xFF})), Count: 5, TS: 42},
	}
}

func fillBatch(b *Batch, rows []Row) {
	for _, r := range rows {
		b.Append(r)
	}
}

func runColumnar(t *testing.T, fn func(t *testing.T, newBatch func(int) *Batch)) {
	t.Run("columnar", func(t *testing.T) { fn(t, NewBatch) })
}

func TestBatchRoundTrip(t *testing.T) {
	runColumnar(t, func(t *testing.T, newBatch func(int) *Batch) {
		rows := testRows()
		b := newBatch(2)
		fillBatch(b, rows)
		if b.Len() != len(rows) {
			t.Fatalf("Len = %d, want %d", b.Len(), len(rows))
		}
		if b.Arity() != 5 {
			t.Fatalf("Arity = %d, want 5", b.Arity())
		}
		for i, want := range rows {
			got := b.RowAt(i)
			if got.Count != want.Count || got.TS != want.TS {
				t.Fatalf("row %d count/ts = %d/%d, want %d/%d", i, got.Count, got.TS, want.Count, want.TS)
			}
			if !bytes.Equal(tuple.EncodeRow(nil, got.Tuple), tuple.EncodeRow(nil, want.Tuple)) {
				t.Fatalf("row %d tuple = %v, want %v", i, got.Tuple, want.Tuple)
			}
			for c := range want.Tuple {
				if !tuple.Equal(b.ValueAt(i, c), want.Tuple[c]) {
					t.Fatalf("ValueAt(%d,%d) = %v, want %v", i, c, b.ValueAt(i, c), want.Tuple[c])
				}
			}
			if got, want := b.EncodeRowAt(nil, i), tuple.EncodeRow(nil, want.Tuple); !bytes.Equal(got, want) {
				t.Fatalf("EncodeRowAt(%d) = % x, want % x", i, got, want)
			}
		}
		// Reset keeps storage and accepts a different arity afterwards.
		b.Reset()
		if b.Len() != 0 || b.Arity() != -1 {
			t.Fatalf("after Reset: Len=%d Arity=%d", b.Len(), b.Arity())
		}
		b.Add(tuple.Tuple{tuple.Int(7)}, 1, 1)
		if b.Arity() != 1 || b.Len() != 1 {
			t.Fatalf("after refill: Len=%d Arity=%d", b.Len(), b.Arity())
		}
	})
}

func TestBatchAppendDecodedRow(t *testing.T) {
	runColumnar(t, func(t *testing.T, newBatch func(int) *Batch) {
		rows := testRows()
		var enc []byte
		for _, r := range rows {
			enc = tuple.EncodeRow(enc, r.Tuple)
		}
		b := newBatch(4)
		rest := enc
		var err error
		for i, r := range rows {
			rest, err = b.AppendDecodedRow(rest, r.Count, r.TS)
			if err != nil {
				t.Fatalf("AppendDecodedRow row %d: %v", i, err)
			}
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes", len(rest))
		}
		for i, want := range rows {
			if got := b.EncodeRowAt(nil, i); !bytes.Equal(got, tuple.EncodeRow(nil, want.Tuple)) {
				t.Fatalf("row %d decode mismatch: %v vs %v", i, b.RowAt(i).Tuple, want.Tuple)
			}
			if b.CountAt(i) != want.Count || b.TSAt(i) != want.TS {
				t.Fatalf("row %d count/ts mismatch", i)
			}
		}
		if _, err := b.AppendDecodedRow(tuple.EncodeRow(nil, tuple.Tuple{tuple.Int(1)}), 1, 1); err == nil {
			t.Fatal("arity mismatch not rejected")
		}
	})
}

func TestBatchRetainSelection(t *testing.T) {
	runColumnar(t, func(t *testing.T, newBatch func(int) *Batch) {
		b := newBatch(8)
		for i := 0; i < 8; i++ {
			b.Add(tuple.Tuple{tuple.Int(int64(i))}, 1, CSN(i))
		}
		b.Retain(func(i int) bool { return b.ValueAt(i, 0).AsInt()%2 == 0 }) // 0 2 4 6
		b.Retain(func(i int) bool { return b.ValueAt(i, 0).AsInt() > 0 })    // 2 4 6
		if b.Len() != 3 {
			t.Fatalf("Len = %d, want 3", b.Len())
		}
		for i, want := range []int64{2, 4, 6} {
			if got := b.ValueAt(i, 0).AsInt(); got != want {
				t.Fatalf("row %d = %d, want %d", i, got, want)
			}
			if b.TSAt(i) != CSN(want) {
				t.Fatalf("row %d ts = %d, want %d", i, b.TSAt(i), want)
			}
		}
		rows := b.MaterializeInto(nil)
		if len(rows) != 3 || rows[2].Tuple[0].AsInt() != 6 {
			t.Fatalf("MaterializeInto = %v", rows)
		}
		// Retain that keeps everything must stay selection-free on a fresh batch.
		f := newBatch(2)
		f.Add(tuple.Tuple{tuple.Int(1)}, 1, 1)
		f.Retain(func(int) bool { return true })
		if f.sel != nil {
			t.Fatal("all-kept Retain installed a selection")
		}
		// Retain that drops everything on a fresh batch (selBuf never
		// allocated) must leave zero visible rows, not fall back to the
		// nil "all rows visible" selection.
		g := newBatch(2)
		g.Add(tuple.Tuple{tuple.Int(1)}, 1, 1)
		g.Add(tuple.Tuple{tuple.Int(2)}, 1, 2)
		g.Retain(func(int) bool { return false })
		if g.Len() != 0 {
			t.Fatalf("all-dropped Retain left %d visible rows, want 0", g.Len())
		}
		if rows := g.MaterializeInto(nil); len(rows) != 0 {
			t.Fatalf("all-dropped Retain materialized %v", rows)
		}
		// And the emptied batch must accept a refill + partial Retain.
		g.Reset()
		g.Add(tuple.Tuple{tuple.Int(3)}, 1, 3)
		g.Add(tuple.Tuple{tuple.Int(4)}, 1, 4)
		g.Retain(func(i int) bool { return g.ValueAt(i, 0).AsInt() == 4 })
		if g.Len() != 1 || g.ValueAt(0, 0).AsInt() != 4 {
			t.Fatalf("refill after all-dropped Retain: Len=%d", g.Len())
		}
	})
}

func TestBatchProjectInPlace(t *testing.T) {
	runColumnar(t, func(t *testing.T, newBatch func(int) *Batch) {
		rows := testRows()
		for _, idx := range [][]int{{1, 0}, {2}, {1, 1, 0}, {4, 3, 2, 1, 0}} {
			b := newBatch(4)
			fillBatch(b, rows)
			b.ProjectInPlace(idx)
			if b.Arity() != len(idx) {
				t.Fatalf("idx %v: Arity = %d", idx, b.Arity())
			}
			for i, r := range rows {
				want := r.Tuple.Project(idx)
				got := b.RowAt(i)
				if !bytes.Equal(tuple.EncodeRow(nil, got.Tuple), tuple.EncodeRow(nil, want)) {
					t.Fatalf("idx %v row %d: %v, want %v", idx, i, got.Tuple, want)
				}
			}
			// A projected batch must stay usable after Reset: duplicate
			// indices must not leave two columns aliasing one array.
			b.Reset()
			fillBatch(b, rows[:2])
			for i := 0; i < 2; i++ {
				if !bytes.Equal(tuple.EncodeRow(nil, b.RowAt(i).Tuple), tuple.EncodeRow(nil, rows[i].Tuple)) {
					t.Fatalf("idx %v: post-Reset refill corrupted row %d: %v", idx, i, b.RowAt(i).Tuple)
				}
			}
		}
	})
}

// TestBatchProjectThenWiderRefill reproduces a recycling corruption: a
// permuting projection followed by a narrowing projection used to leave
// stale column structs — sharing backing arrays with the live columns —
// in the cap region of the column slice. A later Reset + wider refill
// re-exposed those structs, and two live columns then appended into the
// same array, silently overwriting each other's values.
func TestBatchProjectThenWiderRefill(t *testing.T) {
	b := &Batch{ncols: -1}
	add4 := func(a, x, c, d int64) {
		b.Add(tuple.Tuple{tuple.Int(a), tuple.Int(x), tuple.Int(c), tuple.Int(d)}, 1, 1)
	}
	add4(1, 2, 3, 4)
	b.ProjectInPlace([]int{2, 3, 0, 1}) // permute: swaps cols into colScratch
	b.ProjectInPlace([]int{0, 1})       // narrow: live columns move back into the old array
	b.Reset()
	add4(5, 104, 5, 12) // wider refill re-extends cols into the cap region
	got := b.RowAt(0).Tuple
	want := tuple.Tuple{tuple.Int(5), tuple.Int(104), tuple.Int(5), tuple.Int(12)}
	if !bytes.Equal(tuple.EncodeRow(nil, got), tuple.EncodeRow(nil, want)) {
		t.Fatalf("refill after projections corrupted row: got %v, want %v", got, want)
	}
}

func TestBatchJoinAppends(t *testing.T) {
	runColumnar(t, func(t *testing.T, newBatch func(int) *Batch) {
		l := newBatch(2)
		l.Add(tuple.Tuple{tuple.Int(1), tuple.String_("a")}, 2, 9)
		r := newBatch(2)
		r.Add(tuple.Tuple{tuple.Float(0.5)}, 3, NullTS)
		out := newBatch(2)
		out.AppendJoined(l, 0, r, 0)
		out.AppendJoinedRow(l, 0, Row{Tuple: tuple.Tuple{tuple.Bool(true)}, Count: -1, TS: 4})
		got := out.RowAt(0)
		if got.Count != 6 || got.TS != 9 || len(got.Tuple) != 3 {
			t.Fatalf("AppendJoined = %+v", got)
		}
		got = out.RowAt(1)
		if got.Count != -2 || got.TS != 4 || !got.Tuple[2].AsBool() {
			t.Fatalf("AppendJoinedRow = %+v", got)
		}
	})
}

func TestBatchDictReuseAcrossReset(t *testing.T) {
	b := &Batch{ncols: -1}
	b.Add(tuple.Tuple{tuple.String_("alpha")}, 1, 1)
	b.Add(tuple.Tuple{tuple.String_("beta")}, 1, 1)
	dictBefore := b.cols[0].dict
	b.Reset()
	if n := testing.AllocsPerRun(50, func() {
		b.Reset()
		b.cols = b.cols[:1]
		b.ncols = 1
		b.cols[0].appendString("alpha")
		b.counts = append(b.counts, 1)
		b.tss = append(b.tss, 1)
		b.n++
	}); n != 0 {
		t.Fatalf("re-interning a seen string allocates %.1f/op", n)
	}
	b.Reset()
	b.Add(tuple.Tuple{tuple.String_("beta")}, 1, 1)
	if &dictBefore[0] != &b.cols[0].dict[0] {
		t.Fatal("dictionary was rebuilt across Reset")
	}
	if b.ValueAt(0, 0).AsString() != "beta" {
		t.Fatalf("got %v", b.ValueAt(0, 0))
	}
}

func TestHashTableMatchesReferenceJoin(t *testing.T) {
	runColumnar(t, func(t *testing.T, newBatch func(int) *Batch) {
		build := testRows()
		probes := []tuple.Tuple{
			{tuple.String_("red"), tuple.Int(0)},
			{tuple.String_("blue"), tuple.Int(1)},
			{tuple.String_("green"), tuple.Int(2)},
			{tuple.String_(""), tuple.Int(3)},
		}
		ht := NewHashTable([]int{1})
		bb := newBatch(len(build))
		fillBatch(bb, build)
		ht.InsertBatch(bb)
		if ht.Len() != len(build) {
			t.Fatalf("Len = %d", ht.Len())
		}
		for _, pt := range probes {
			// Reference: linear scan in insertion order.
			var want []Row
			for _, r := range build {
				if tuple.Equal(r.Tuple[1], pt[0]) {
					want = append(want, r)
				}
			}
			var got []Row
			ht.Probe(pt, []int{0}, func(r Row) { got = append(got, r) })
			if len(got) != len(want) {
				t.Fatalf("probe %v: %d matches, want %d", pt, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(tuple.EncodeRow(nil, got[i].Tuple), tuple.EncodeRow(nil, want[i].Tuple)) {
					t.Fatalf("probe %v match %d: %v, want %v", pt, i, got[i].Tuple, want[i].Tuple)
				}
			}
			// Columnar probe protocol agrees with the legacy callback API.
			pb := newBatch(1)
			pb.Add(pt, 1, 1)
			hash := pb.HashAt(0, []int{0})
			var n int
			for i := ht.Seek(hash); i >= 0; i = ht.Next(i) {
				if ht.Match(i, hash, pb, 0, []int{0}) {
					n++
				}
			}
			if n != len(want) {
				t.Fatalf("probe %v: Seek/Match found %d, want %d", pt, n, len(want))
			}
		}
		// Empty key list: one chain, cross product.
		cross := NewHashTable(nil)
		cross.InsertBatch(bb)
		var n int
		cross.Probe(tuple.Tuple{}, nil, func(Row) { n++ })
		if n != len(build) {
			t.Fatalf("cross probe matched %d, want %d", n, len(build))
		}
	})
}

func TestHashTableNullMatchesNull(t *testing.T) {
	ht := NewHashTable([]int{0})
	ht.Insert(Row{Tuple: tuple.Tuple{tuple.Null(), tuple.Int(1)}, Count: 1, TS: 1})
	var n int
	ht.Probe(tuple.Tuple{tuple.Null()}, []int{0}, func(Row) { n++ })
	if n != 1 {
		t.Fatalf("null probe matched %d rows, want 1", n)
	}
}

func TestFilterBatchMatchesEval(t *testing.T) {
	preds := []Predicate{
		True{},
		ColConst{Col: 0, Op: OpGT, Val: tuple.Int(1)},
		ColConst{Col: 1, Op: OpEQ, Val: tuple.String_("red")},
		ColConst{Col: 2, Op: OpLE, Val: tuple.Float(0.5)},
		ColConst{Col: 0, Op: OpNE, Val: tuple.Float(2)}, // cross-kind compare
		ColCol{ColA: 0, Op: OpLT, ColB: 2},
		And{ColConst{Col: 0, Op: OpGE, Val: tuple.Int(1)}, ColConst{Col: 1, Op: OpNE, Val: tuple.String_("blue")}},
		Or{ColConst{Col: 0, Op: OpEQ, Val: tuple.Int(2)}, ColConst{Col: 3, Op: OpEQ, Val: tuple.Bool(true)}},
		Not{P: ColConst{Col: 0, Op: OpLT, Val: tuple.Int(0)}},
	}
	runColumnar(t, func(t *testing.T, newBatch func(int) *Batch) {
		rows := testRows()
		for _, p := range preds {
			b := newBatch(4)
			fillBatch(b, rows)
			FilterBatch(p, b)
			var want []Row
			for _, r := range rows {
				if p.Eval(r.Tuple) {
					want = append(want, r)
				}
			}
			if b.Len() != len(want) {
				t.Fatalf("%s: kept %d rows, want %d", p, b.Len(), len(want))
			}
			for i := range want {
				if !bytes.Equal(tuple.EncodeRow(nil, b.RowAt(i).Tuple), tuple.EncodeRow(nil, want[i].Tuple)) {
					t.Fatalf("%s row %d: %v, want %v", p, i, b.RowAt(i).Tuple, want[i].Tuple)
				}
			}
		}
	})
}

func TestBatchHashMatchesTupleHash(t *testing.T) {
	rows := testRows()
	b := &Batch{ncols: -1}
	fillBatch(b, rows)
	cols := []int{1, 0, 4}
	for i, r := range rows {
		h := uint64(1469598103934665603)
		for _, c := range cols {
			h = r.Tuple[c].Hash(h)
		}
		if got := b.HashAt(i, cols); got != h {
			t.Fatalf("row %d: HashAt = %#x, tuple chain = %#x", i, got, h)
		}
	}
}
