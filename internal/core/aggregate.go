package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/relalg"
	"repro/internal/tuple"
)

// AggFunc identifies an aggregate function.
type AggFunc uint8

// The aggregate functions.
const (
	AggCount AggFunc = iota // COUNT(*)
	AggSum                  // SUM(col)
	AggAvg                  // AVG(col)
	AggMin                  // MIN(col)
	AggMax                  // MAX(col)
)

// String returns the SQL spelling.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return fmt.Sprintf("AggFunc(%d)", uint8(f))
}

// AggCol is one aggregate output column.
type AggCol struct {
	Func AggFunc
	// Col is the source column aggregated (ignored for AggCount).
	Col int
	// Name is the output column name.
	Name string
}

// AggregateDef defines an incremental GROUP BY aggregate over one source
// relation — a base table or another maintained view.
type AggregateDef struct {
	Name string
	// Source is the relation aggregated.
	Source string
	// GroupBy lists the source columns forming the group key.
	GroupBy []int
	// Aggs are the aggregate output columns.
	Aggs []AggCol
}

// OutSchema computes the aggregate's output schema from the source
// schema: the group columns (keeping their source names and kinds)
// followed by the aggregate columns — COUNT is an integer, SUM and AVG
// are floats (numeric coercion), MIN and MAX keep the source column's
// kind.
func (d *AggregateDef) OutSchema(src *tuple.Schema) (*tuple.Schema, error) {
	cols := make([]tuple.Column, 0, len(d.GroupBy)+len(d.Aggs))
	for _, c := range d.GroupBy {
		if c < 0 || c >= src.Arity() {
			return nil, fmt.Errorf("core: aggregate %q: group column %d out of range", d.Name, c)
		}
		cols = append(cols, src.Columns[c])
	}
	for _, a := range d.Aggs {
		if a.Name == "" {
			return nil, fmt.Errorf("core: aggregate %q: aggregate column without a name", d.Name)
		}
		kind := tuple.KindFloat
		switch a.Func {
		case AggCount:
			kind = tuple.KindInt
		case AggSum, AggAvg:
			kind = tuple.KindFloat
		case AggMin, AggMax:
			if a.Col < 0 || a.Col >= src.Arity() {
				return nil, fmt.Errorf("core: aggregate %q: %s column %d out of range", d.Name, a.Func, a.Col)
			}
			kind = src.Columns[a.Col].Kind
		default:
			return nil, fmt.Errorf("core: aggregate %q: unknown aggregate function %d", d.Name, a.Func)
		}
		if a.Func == AggSum || a.Func == AggAvg {
			if a.Col < 0 || a.Col >= src.Arity() {
				return nil, fmt.Errorf("core: aggregate %q: %s column %d out of range", d.Name, a.Func, a.Col)
			}
		}
		cols = append(cols, tuple.Column{Name: a.Name, Kind: kind})
	}
	return tuple.NewSchema(cols...), nil
}

// extrema is the per-group auxiliary structure for one MIN/MAX column: a
// counted multiset of the column's values in the group, keyed by the
// order-preserving key encoding, with the current extremum cached.
// Insertions update the cached extremum with one comparison; deleting the
// extremum's last copy rescans the multiset ("rescan on extrema delete"
// — the retraction case GROUP BY compensation cannot handle locally).
// NULLs participate and sort before every other value, matching
// tuple.Compare.
type extrema struct {
	max    bool
	counts map[string]int64
	best   string // encoding of the cached extremum; "" when empty
}

func newExtrema(max bool) *extrema {
	return &extrema{max: max, counts: make(map[string]int64)}
}

// better reports whether encoded value a beats b for this direction. The
// key encoding is order-preserving, so byte comparison is value order.
func (e *extrema) better(a, b string) bool {
	if e.max {
		return a > b
	}
	return a < b
}

// add folds a multiplicity change for one value. A negative resulting
// multiplicity reports an invariant violation: the upstream delta
// retracted a value the group does not hold.
func (e *extrema) add(enc string, delta int64) error {
	c := e.counts[enc] + delta
	switch {
	case c < 0:
		return fmt.Errorf("%w: aggregate %s multiset", ErrNegativeCount, map[bool]string{true: "MAX", false: "MIN"}[e.max])
	case c == 0:
		delete(e.counts, enc)
		if enc == e.best {
			e.rescan()
		}
	default:
		e.counts[enc] = c
		if delta > 0 && (e.best == "" || e.better(enc, e.best)) {
			e.best = enc
		}
	}
	return nil
}

// rescan recomputes the cached extremum from the full multiset.
func (e *extrema) rescan() {
	e.best = ""
	for enc := range e.counts {
		if e.best == "" || e.better(enc, e.best) {
			e.best = enc
		}
	}
}

// aggGroup is one group's running state.
type aggGroup struct {
	gk    string      // encoded group key — the groups map key
	count int64       // number of source rows (with multiplicity)
	sums  []float64   // indexed by aggregate column (SUM/AVG entries used)
	mm    []*extrema  // indexed by aggregate column (MIN/MAX entries non-nil)
	key   tuple.Tuple // decoded group key, set at group creation
	// prevEnc is the encoded output row currently reflected in the
	// aggregate's delta stream (nil before the group's first emission).
	// It aliases one of the two enc buffers; encoding the next output row
	// into the other buffer leaves the previous encoding intact for the
	// retraction emission without allocating per change.
	prevEnc []byte
	enc     [2][]byte
	cur     int
}

// aggStage nets one timestamp's upstream delta rows for one group before
// they are applied: within a single commit the upstream view delta may
// interleave compensation (negative) rows with the forward rows they
// compensate, so invariants hold only at commit granularity — exactly
// like Derived.ApplyThrough netting a window first.
type aggStage struct {
	count int64
	sums  []float64
	mm    []map[string]int64
}

// rowDecoder is a tuple.RowSink that decodes encoded rows into one
// reusable scratch tuple, so the fold loop never allocates a Tuple per
// source delta row. The decoded row is only valid until the next decode.
type rowDecoder struct{ row tuple.Tuple }

func (d *rowDecoder) BeginRow(arity int) {
	if cap(d.row) < arity {
		d.row = make(tuple.Tuple, 0, arity)
	} else {
		d.row = d.row[:0]
	}
}
func (d *rowDecoder) PushNull()           { d.row = append(d.row, tuple.Null()) }
func (d *rowDecoder) PushBool(v bool)     { d.row = append(d.row, tuple.Bool(v)) }
func (d *rowDecoder) PushInt(v int64)     { d.row = append(d.row, tuple.Int(v)) }
func (d *rowDecoder) PushFloat(v float64) { d.row = append(d.row, tuple.Float(v)) }
func (d *rowDecoder) PushString(s []byte) { d.row = append(d.row, tuple.String_(string(s))) }
func (d *rowDecoder) PushBytes(b []byte) {
	d.row = append(d.row, tuple.Bytes(append([]byte(nil), b...)))
}

// AggView is the first-class incremental aggregate operator: it folds
// its source relation's timed delta windows into per-group running state
// (group-level compensation for COUNT/SUM/AVG, counted multisets with
// rescan-on-extrema-delete for MIN/MAX) and emits its own timed delta of
// group-level changes — a retraction of the group's previous output row
// followed by its new one, stamped with the upstream commit's timestamp.
// Because the output is itself a timed delta table with a high-water
// mark, aggregates cascade: views and further aggregates read an
// aggregate exactly like a base table.
type AggView struct {
	def   *AggregateDef
	src   *tuple.Schema
	out   *tuple.Schema
	up    *engine.DeltaTable // source delta stream
	upHWM func() relalg.CSN  // source completeness bound
	dest  *engine.DeltaTable // own delta of group-level changes

	mu       sync.Mutex
	frontier relalg.CSN // upstream CSN folded through == own HWM
	groups   map[string]*aggGroup

	// Fold-path scratch, guarded by mu: reused across rows and commits so
	// a steady-state step's allocations are essentially the btree-retained
	// key/value slices of the emitted delta rows
	// (BenchmarkAggregateStepAllocs gates the budget in CI).
	dec        rowDecoder
	kbuf       []byte
	vbuf       []byte
	gscratch   []*aggGroup
	outScratch tuple.Tuple
	stage      map[*aggGroup]*aggStage
	stagePool  []*aggStage

	steps       atomic.Int64
	rowsFolded  atomic.Int64
	rowsEmitted atomic.Int64
}

// NewAggView creates the operator. up is the source relation's delta
// stream and upHWM its completeness bound: capture progress for a base
// table, the view's high-water mark for a maintained view. dest receives
// the aggregate's own delta rows.
func NewAggView(def *AggregateDef, src, out *tuple.Schema, up *engine.DeltaTable, upHWM func() relalg.CSN, dest *engine.DeltaTable) *AggView {
	return &AggView{
		def:    def,
		src:    src,
		out:    out,
		up:     up,
		upHWM:  upHWM,
		dest:   dest,
		groups: make(map[string]*aggGroup),
	}
}

// HWM returns the aggregate's high-water mark: its delta stream is
// complete through this CSN.
func (av *AggView) HWM() relalg.CSN {
	av.mu.Lock()
	defer av.mu.Unlock()
	return av.frontier
}

// Groups returns the current number of groups.
func (av *AggView) Groups() int {
	av.mu.Lock()
	defer av.mu.Unlock()
	return len(av.groups)
}

// Steps returns the number of completed propagation steps.
func (av *AggView) Steps() int64 { return av.steps.Load() }

// RowsFolded returns the cumulative upstream delta rows folded.
func (av *AggView) RowsFolded() int64 { return av.rowsFolded.Load() }

// RowsEmitted returns the cumulative output delta rows emitted.
func (av *AggView) RowsEmitted() int64 { return av.rowsEmitted.Load() }

// Seed initializes the group state from the source's contents at asOf
// (no delta rows are emitted) and returns the aggregate's initial output
// relation — the rows a downstream materialization and the derived image
// start from. The frontier starts at asOf.
func (av *AggView) Seed(rel *relalg.Relation, asOf relalg.CSN) (*relalg.Relation, error) {
	av.mu.Lock()
	defer av.mu.Unlock()
	stage := av.takeStage()
	defer av.recycleStage(stage)
	for _, r := range relalg.NetEffect(rel).Rows {
		if err := av.stageRow(stage, r.Tuple, r.Count); err != nil {
			return nil, err
		}
	}
	if err := av.applyStage(relalg.NullTS, stage, false); err != nil {
		return nil, err
	}
	av.frontier = asOf
	out := relalg.NewRelation(av.out)
	keys := make([]string, 0, len(av.groups))
	for gk := range av.groups {
		keys = append(keys, gk)
	}
	sort.Strings(keys)
	for _, gk := range keys {
		g := av.groups[gk]
		row, err := av.outputRow(g)
		if err != nil {
			return nil, err
		}
		g.enc[g.cur] = tuple.EncodeRow(g.enc[g.cur][:0], row)
		g.prevEnc = g.enc[g.cur]
		out.Add(append(tuple.Tuple(nil), row...), 1, relalg.NullTS)
	}
	return out, nil
}

// Step is the aggregate's propagation step: it folds the upstream delta
// window (frontier, upstream HWM] into the group state, emitting group-
// level delta rows per upstream commit, and advances the frontier. It
// returns ErrNoProgress when the upstream mark has not moved.
func (av *AggView) Step() error {
	av.mu.Lock()
	defer av.mu.Unlock()
	lo, hi := av.frontier, av.upHWM()
	if hi <= lo {
		return ErrNoProgress
	}
	if err := fault.Inject(fault.PointAggregate); err != nil {
		return err
	}
	var (
		curTS  relalg.CSN
		haveTS bool
		folded int64
	)
	stage := av.takeStage()
	defer av.recycleStage(stage)
	err := av.up.WindowEach(lo, hi, func(ts relalg.CSN, count int64, encRow []byte) error {
		if haveTS && ts != curTS {
			if err := av.applyStage(curTS, stage, true); err != nil {
				return err
			}
			av.recycleStage(stage)
		}
		curTS, haveTS = ts, true
		if _, err := tuple.DecodeRowInto(encRow, &av.dec); err != nil {
			return err
		}
		folded++
		return av.stageRow(stage, av.dec.row, count)
	})
	if err != nil {
		return err
	}
	if haveTS {
		if err := av.applyStage(curTS, stage, true); err != nil {
			return err
		}
	}
	av.frontier = hi
	av.steps.Add(1)
	av.rowsFolded.Add(folded)
	return nil
}

// takeStage returns the reusable staging map (created on first use).
func (av *AggView) takeStage() map[*aggGroup]*aggStage {
	if av.stage == nil {
		av.stage = make(map[*aggGroup]*aggStage)
	}
	return av.stage
}

// recycleStage empties the staging map, returning its entries to the
// stage pool for reuse by the next commit. Safe to call repeatedly.
func (av *AggView) recycleStage(stage map[*aggGroup]*aggStage) {
	for g, st := range stage {
		av.stagePool = append(av.stagePool, st)
		delete(stage, g)
	}
}

// stageGet pops a cleared aggStage from the pool, or allocates one.
func (av *AggView) stageGet() *aggStage {
	if n := len(av.stagePool); n > 0 {
		st := av.stagePool[n-1]
		av.stagePool = av.stagePool[:n-1]
		st.count = 0
		for i := range st.sums {
			st.sums[i] = 0
		}
		for i := range st.mm {
			if st.mm[i] != nil {
				clear(st.mm[i])
			}
		}
		return st
	}
	return &aggStage{sums: make([]float64, len(av.def.Aggs))}
}

// stageRow nets one source delta row into the per-timestamp stage. The
// row may live in scratch storage; nothing from it is retained except
// copied encodings. A row for an unseen group creates the group eagerly
// (count 0) so the stage can be keyed by group pointer — the string(kbuf)
// map read compiles without a conversion allocation, leaving the group's
// first-ever row as the only one that pays for key materialization;
// applyStage deletes groups that never accumulate rows.
func (av *AggView) stageRow(stage map[*aggGroup]*aggStage, row tuple.Tuple, count int64) error {
	av.kbuf = av.kbuf[:0]
	for _, c := range av.def.GroupBy {
		av.kbuf = tuple.EncodeKeyValue(av.kbuf, row[c])
	}
	g := av.groups[string(av.kbuf)]
	if g == nil {
		key, err := tuple.DecodeKey(av.kbuf, len(av.def.GroupBy))
		if err != nil {
			return err
		}
		g = &aggGroup{gk: string(av.kbuf), sums: make([]float64, len(av.def.Aggs)), key: key}
		for i, a := range av.def.Aggs {
			if a.Func == AggMin || a.Func == AggMax {
				if g.mm == nil {
					g.mm = make([]*extrema, len(av.def.Aggs))
				}
				g.mm[i] = newExtrema(a.Func == AggMax)
			}
		}
		av.groups[g.gk] = g
	}
	st := stage[g]
	if st == nil {
		st = av.stageGet()
		stage[g] = st
	}
	st.count += count
	for i, a := range av.def.Aggs {
		switch a.Func {
		case AggSum, AggAvg:
			st.sums[i] += float64(count) * numeric(row[a.Col])
		case AggMin, AggMax:
			if st.mm == nil {
				st.mm = make([]map[string]int64, len(av.def.Aggs))
			}
			if st.mm[i] == nil {
				st.mm[i] = make(map[string]int64)
			}
			av.vbuf = tuple.EncodeKeyValue(av.vbuf[:0], row[a.Col])
			st.mm[i][string(av.vbuf)] += count
		}
	}
	return nil
}

// numeric coerces a value to float64 for SUM (NULL contributes 0).
func numeric(v tuple.Value) float64 {
	switch v.Kind() {
	case tuple.KindInt:
		return float64(v.AsInt())
	case tuple.KindFloat:
		return v.AsFloat()
	case tuple.KindBool:
		if v.AsBool() {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// applyStage applies one commit's netted changes to the group state and,
// when emit is set, appends the resulting group-level changes to the
// aggregate's delta stream at ts: (−1, previous output row) then
// (+1, new output row), omitting whichever side does not exist. A group
// whose source-row count would go negative reports an invariant
// violation; a group reaching zero is retracted and deleted.
func (av *AggView) applyStage(ts relalg.CSN, stage map[*aggGroup]*aggStage, emit bool) error {
	av.gscratch = av.gscratch[:0]
	for g := range stage {
		av.gscratch = append(av.gscratch, g)
	}
	sort.Slice(av.gscratch, func(i, j int) bool { return av.gscratch[i].gk < av.gscratch[j].gk })
	for _, g := range av.gscratch {
		st := stage[g]
		if g.count == 0 && g.prevEnc == nil {
			// The group was created eagerly by this commit's first staged
			// row. A net-negative start is an invariant violation; a
			// net-zero commit (e.g. an insert-delete pair) leaves no group.
			if st.count < 0 {
				return fmt.Errorf("%w: aggregate %q group would start at %d", ErrNegativeCount, av.def.Name, st.count)
			}
			if st.count == 0 {
				delete(av.groups, g.gk)
				continue
			}
		}
		if g.count+st.count < 0 {
			return fmt.Errorf("%w: aggregate %q group count would become %d", ErrNegativeCount, av.def.Name, g.count+st.count)
		}
		g.count += st.count
		for i := range av.def.Aggs {
			g.sums[i] += st.sums[i]
			if st.mm != nil && st.mm[i] != nil {
				for enc, d := range st.mm[i] {
					if d == 0 {
						continue
					}
					if err := g.mm[i].add(enc, d); err != nil {
						return fmt.Errorf("aggregate %q: %w", av.def.Name, err)
					}
				}
			}
		}
		var newEnc []byte
		if g.count > 0 {
			row, err := av.outputRow(g)
			if err != nil {
				return err
			}
			next := 1 - g.cur
			g.enc[next] = tuple.EncodeRow(g.enc[next][:0], row)
			newEnc = g.enc[next]
			g.cur = next
		}
		if emit && !bytes.Equal(g.prevEnc, newEnc) {
			if g.prevEnc != nil {
				av.dest.AppendEncoded(ts, -1, g.prevEnc)
				av.rowsEmitted.Add(1)
			}
			if newEnc != nil {
				av.dest.AppendEncoded(ts, +1, newEnc)
				av.rowsEmitted.Add(1)
			}
		}
		g.prevEnc = newEnc
		if g.count == 0 {
			delete(av.groups, g.gk)
		}
	}
	return nil
}

// outputRow builds a group's current output row — the group key followed
// by the aggregate values — in scratch storage valid until the next call.
func (av *AggView) outputRow(g *aggGroup) (tuple.Tuple, error) {
	row := av.outScratch[:0]
	row = append(row, g.key...)
	for i, a := range av.def.Aggs {
		switch a.Func {
		case AggCount:
			row = append(row, tuple.Int(g.count))
		case AggSum:
			row = append(row, tuple.Float(g.sums[i]))
		case AggAvg:
			row = append(row, tuple.Float(g.sums[i]/float64(g.count)))
		case AggMin, AggMax:
			if g.mm[i].best == "" {
				row = append(row, tuple.Null())
				continue
			}
			v, _, err := tuple.DecodeKeyValue([]byte(g.mm[i].best))
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
	}
	av.outScratch = row
	return row, nil
}
