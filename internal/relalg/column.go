package relalg

import "repro/internal/tuple"

// column is one typed vector of a columnar Batch. Storage is by kind: a
// per-row kind tag selects which typed payload array holds the row's
// entry, and idx maps the row to its slot in that array. A column whose
// rows all share one kind (the overwhelmingly common case — schemas are
// typed) therefore degenerates to a single dense typed vector with
// idx[i] == i, which is the layout the specialized kernels (hashing,
// comparisons, serialization) run over. Mixed-kind columns remain
// correct through the same per-row dispatch, just without the dense
// fast path.
//
// Strings are dictionary-encoded: payloads are int32 codes into an
// append-only dict shared by every fill of the column. Because the dict
// only grows, codes handed out earlier stay valid across Reset, and a
// recycled batch re-interning a string it has seen before performs a
// map lookup but no allocation. Bytes payloads are stored flat in bbuf
// with end offsets in bends.
//
// nulls is a validity bitmap (bit set = row is NULL), redundant with
// the kind tags but cheap to maintain and O(1) to test in vectorized
// null checks.
type column struct {
	kinds []uint8 // per-row tuple.Kind tags
	idx   []int32 // per-row slot in the kind's payload array
	nulls []uint64

	ints   []int64   // KindBool (0/1) and KindInt payloads
	floats []float64 // KindFloat payloads
	codes  []int32   // KindString dictionary codes
	bends  []int32   // KindBytes end offsets into bbuf
	bbuf   []byte    // KindBytes payloads, contiguous

	dict    []string         // string dictionary, append-only
	dictIdx map[string]int32 // payload -> code

	// uniform tracks whether every row so far shares one kind:
	// kindUnset before the first append, the shared kind while uniform,
	// kindMixed after a conflict. Kernels key their dense fast paths on it.
	uniform uint8
}

const (
	kindUnset uint8 = 0xFF
	kindMixed uint8 = 0xFE

	// dictRetainMax bounds how large a dictionary a pooled column may
	// keep across Reset. Steady-state workloads with modest string
	// cardinality stay under it and re-intern for free; a column that
	// blew past it rebuilds from empty rather than pinning the memory.
	dictRetainMax = 4096
)

// reset clears the rows but keeps all storage (and the dictionary, which
// codes may still reference) for the next fill.
func (c *column) reset() {
	c.kinds = c.kinds[:0]
	c.idx = c.idx[:0]
	c.nulls = c.nulls[:0]
	c.ints = c.ints[:0]
	c.floats = c.floats[:0]
	c.codes = c.codes[:0]
	c.bends = c.bends[:0]
	c.bbuf = c.bbuf[:0]
	c.uniform = kindUnset
	if len(c.dict) > dictRetainMax {
		c.dict = nil
		c.dictIdx = nil
	}
}

func (c *column) noteKind(k tuple.Kind) {
	switch c.uniform {
	case uint8(k):
	case kindUnset:
		c.uniform = uint8(k)
	default:
		c.uniform = kindMixed
	}
}

// pushRow appends the row-level bookkeeping (kind tag, payload slot,
// validity bit) shared by every typed append.
func (c *column) pushRow(k tuple.Kind, slot int32) {
	n := len(c.kinds)
	if n>>6 == len(c.nulls) {
		c.nulls = append(c.nulls, 0)
	}
	if k == tuple.KindNull {
		c.nulls[n>>6] |= 1 << (uint(n) & 63)
	}
	c.kinds = append(c.kinds, uint8(k))
	c.idx = append(c.idx, slot)
	c.noteKind(k)
}

func (c *column) appendNull() { c.pushRow(tuple.KindNull, 0) }

func (c *column) appendBool(v bool) {
	var i int64
	if v {
		i = 1
	}
	c.pushRow(tuple.KindBool, int32(len(c.ints)))
	c.ints = append(c.ints, i)
}

func (c *column) appendInt(v int64) {
	c.pushRow(tuple.KindInt, int32(len(c.ints)))
	c.ints = append(c.ints, v)
}

func (c *column) appendFloat(v float64) {
	c.pushRow(tuple.KindFloat, int32(len(c.floats)))
	c.floats = append(c.floats, v)
}

func (c *column) appendString(s string) {
	c.pushRow(tuple.KindString, int32(len(c.codes)))
	c.codes = append(c.codes, c.code(s))
}

// appendStringBytes interns a string payload handed over as raw bytes
// (the scan-ingress path): the dictionary lookup converts without
// allocating, and only a novel string pays for the copy.
func (c *column) appendStringBytes(s []byte) {
	c.pushRow(tuple.KindString, int32(len(c.codes)))
	if c.dictIdx != nil {
		if code, ok := c.dictIdx[string(s)]; ok {
			c.codes = append(c.codes, code)
			return
		}
	}
	c.codes = append(c.codes, c.code(string(s)))
}

func (c *column) appendBytes(b []byte) {
	c.pushRow(tuple.KindBytes, int32(len(c.bends)))
	c.bbuf = append(c.bbuf, b...)
	c.bends = append(c.bends, int32(len(c.bbuf)))
}

func (c *column) appendValue(v tuple.Value) {
	switch v.Kind() {
	case tuple.KindNull:
		c.appendNull()
	case tuple.KindBool:
		c.appendBool(v.AsBool())
	case tuple.KindInt:
		c.appendInt(v.AsInt())
	case tuple.KindFloat:
		c.appendFloat(v.AsFloat())
	case tuple.KindString:
		c.appendString(v.AsString())
	case tuple.KindBytes:
		c.appendBytes(v.AsBytes())
	}
}

// appendFrom copies row i of src, moving typed payloads directly
// (strings re-intern into this column's dictionary).
func (c *column) appendFrom(src *column, i int) {
	switch tuple.Kind(src.kinds[i]) {
	case tuple.KindNull:
		c.appendNull()
	case tuple.KindBool:
		c.pushRow(tuple.KindBool, int32(len(c.ints)))
		c.ints = append(c.ints, src.ints[src.idx[i]])
	case tuple.KindInt:
		c.appendInt(src.ints[src.idx[i]])
	case tuple.KindFloat:
		c.appendFloat(src.floats[src.idx[i]])
	case tuple.KindString:
		c.appendString(src.dict[src.codes[src.idx[i]]])
	case tuple.KindBytes:
		c.appendBytes(src.bytesAt(src.idx[i]))
	}
}

func (c *column) code(s string) int32 {
	if c.dictIdx == nil {
		c.dictIdx = make(map[string]int32)
	}
	if code, ok := c.dictIdx[s]; ok {
		return code
	}
	code := int32(len(c.dict))
	c.dict = append(c.dict, s)
	c.dictIdx[s] = code
	return code
}

func (c *column) bytesAt(slot int32) []byte {
	start := int32(0)
	if slot > 0 {
		start = c.bends[slot-1]
	}
	return c.bbuf[start:c.bends[slot]]
}

func (c *column) valueAt(i int) tuple.Value {
	switch tuple.Kind(c.kinds[i]) {
	case tuple.KindBool:
		return tuple.Bool(c.ints[c.idx[i]] != 0)
	case tuple.KindInt:
		return tuple.Int(c.ints[c.idx[i]])
	case tuple.KindFloat:
		return tuple.Float(c.floats[c.idx[i]])
	case tuple.KindString:
		return tuple.String_(c.dict[c.codes[c.idx[i]]])
	case tuple.KindBytes:
		return tuple.Bytes(c.bytesAt(c.idx[i]))
	default:
		return tuple.Null()
	}
}

// hashAt mixes row i into an FNV-1a hash exactly as tuple.Value.Hash
// would, reading the typed payload directly.
func (c *column) hashAt(i int, seed uint64) uint64 {
	switch tuple.Kind(c.kinds[i]) {
	case tuple.KindBool:
		return tuple.HashBool(seed, c.ints[c.idx[i]] != 0)
	case tuple.KindInt:
		return tuple.HashInt(seed, c.ints[c.idx[i]])
	case tuple.KindFloat:
		return tuple.HashFloat(seed, c.floats[c.idx[i]])
	case tuple.KindString:
		return tuple.HashString(seed, c.dict[c.codes[c.idx[i]]])
	case tuple.KindBytes:
		return tuple.HashBytes(seed, c.bytesAt(c.idx[i]))
	default:
		return tuple.HashNull(seed)
	}
}

// equalAt reports whether row i of c equals row j of d under
// tuple.Equal semantics (NULL == NULL; floats compare with < and >, so
// the NaN quirk of tuple.Compare is reproduced exactly).
func (c *column) equalAt(i int, d *column, j int) bool {
	ka, kb := c.kinds[i], d.kinds[j]
	if ka != kb {
		return false
	}
	switch tuple.Kind(ka) {
	case tuple.KindNull:
		return true
	case tuple.KindBool, tuple.KindInt:
		return c.ints[c.idx[i]] == d.ints[d.idx[j]]
	case tuple.KindFloat:
		a, b := c.floats[c.idx[i]], d.floats[d.idx[j]]
		return !(a < b) && !(a > b)
	case tuple.KindString:
		ca, cb := c.codes[c.idx[i]], d.codes[d.idx[j]]
		if c == d || sameDict(c.dict, d.dict) {
			return ca == cb
		}
		return c.dict[ca] == d.dict[cb]
	case tuple.KindBytes:
		return string(c.bytesAt(c.idx[i])) == string(d.bytesAt(d.idx[j]))
	default:
		return false
	}
}

// compareAt orders row i of c against a constant value, mirroring
// tuple.Compare.
func (c *column) compareAt(i int, v tuple.Value) int {
	return tuple.Compare(c.valueAt(i), v)
}

// encodeRowValue appends the row encoding of row i to dst, straight
// from the typed payload (byte-identical to tuple.EncodeRow of the
// materialized value).
func (c *column) encodeRowValue(dst []byte, i int) []byte {
	switch tuple.Kind(c.kinds[i]) {
	case tuple.KindBool:
		return tuple.AppendRowBool(dst, c.ints[c.idx[i]] != 0)
	case tuple.KindInt:
		return tuple.AppendRowInt(dst, c.ints[c.idx[i]])
	case tuple.KindFloat:
		return tuple.AppendRowFloat(dst, c.floats[c.idx[i]])
	case tuple.KindString:
		return tuple.AppendRowString(dst, c.dict[c.codes[c.idx[i]]])
	case tuple.KindBytes:
		return tuple.AppendRowBytes(dst, c.bytesAt(c.idx[i]))
	default:
		return tuple.AppendRowNull(dst)
	}
}

// sameDict reports whether two dictionaries are the same backing array
// (true after a column-move projection), making code equality valid.
func sameDict(a, b []string) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// footprint returns the resident bytes of the column's storage,
// counting capacities (the arena cares about what is held, not what is
// currently filled).
func (c *column) footprint() int64 {
	n := int64(cap(c.kinds)) + 4*int64(cap(c.idx)) + 8*int64(cap(c.nulls)) +
		8*int64(cap(c.ints)) + 8*int64(cap(c.floats)) + 4*int64(cap(c.codes)) +
		4*int64(cap(c.bends)) + int64(cap(c.bbuf))
	for _, s := range c.dict {
		n += int64(len(s)) + 16
	}
	return n
}
