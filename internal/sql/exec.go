package sql

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	rollingjoin "repro"
	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/tuple"
)

// Result is the outcome of executing one statement: either a rendered row
// set or a message.
type Result struct {
	Columns []string
	Rows    [][]string
	Message string
}

// String renders the result for the shell.
func (r *Result) String() string {
	if len(r.Columns) == 0 {
		return r.Message
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)", len(r.Rows))
	return b.String()
}

// Session executes statements against a rollingjoin database. It tracks
// union views by name (the facade does not register them).
type Session struct {
	DB     *rollingjoin.DB
	unions map[string]*rollingjoin.UnionView
}

// NewSession creates a session.
func NewSession(db *rollingjoin.DB) *Session {
	return &Session{
		DB:     db,
		unions: make(map[string]*rollingjoin.UnionView),
	}
}

// Exec parses and executes a semicolon-separated script, returning one
// result per statement. Execution stops at the first error.
func (s *Session) Exec(input string) ([]*Result, error) {
	stmts, err := ParseAll(input)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, stmt := range stmts {
		r, err := s.execStmt(stmt)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

func (s *Session) execStmt(stmt Statement) (*Result, error) {
	switch st := stmt.(type) {
	case *CreateTable:
		return s.createTable(st)
	case *Insert:
		return s.insert(st)
	case *Delete:
		return s.delete(st)
	case *Select:
		return s.selectStmt(st)
	case *CreateView:
		return s.createView(st)
	case *Refresh:
		return s.refresh(st)
	case *DropView:
		if err := s.DB.DropView(st.Name); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("view %s dropped", st.Name)}, nil
	case *Show:
		return s.show(st)
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
	}
}

func (s *Session) createTable(st *CreateTable) (*Result, error) {
	cols := make([]rollingjoin.Column, len(st.Cols))
	for i, c := range st.Cols {
		cols[i] = rollingjoin.Col(c.Name, c.Type)
	}
	if err := s.DB.CreateTable(st.Name, cols...); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("table %s created", st.Name)}, nil
}

// coerce adapts a literal to the column kind where lossless (int → float).
func coerce(v tuple.Value, kind tuple.Kind) tuple.Value {
	if v.Kind() == tuple.KindInt && kind == tuple.KindFloat {
		return tuple.Float(float64(v.AsInt()))
	}
	return v
}

func (s *Session) insert(st *Insert) (*Result, error) {
	t, err := s.DB.Engine().Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()
	csn, err := s.DB.Update(func(tx *rollingjoin.Tx) error {
		for _, row := range st.Rows {
			if len(row) != schema.Arity() {
				return fmt.Errorf("sql: %d values for %d columns", len(row), schema.Arity())
			}
			vals := make([]rollingjoin.Value, len(row))
			for i, v := range row {
				vals[i] = coerce(v, schema.Columns[i].Kind)
			}
			if err := tx.Insert(st.Table, vals...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("%d row(s) inserted at commit %d", len(st.Rows), csn)}, nil
}

func condsToFilters(table string, conds []Cond, schema []string) ([]rollingjoin.Filter, error) {
	var out []rollingjoin.Filter
	for _, c := range conds {
		if c.Qual != "" && c.Qual != table {
			return nil, fmt.Errorf("sql: condition references %q, expected %q", c.Qual, table)
		}
		op, err := cmpOp(c.Op)
		if err != nil {
			return nil, err
		}
		out = append(out, rollingjoin.Filter{Table: table, Column: c.Col, Op: op, Value: c.Val})
	}
	_ = schema
	return out, nil
}

func cmpOp(op string) (rollingjoin.CmpOp, error) {
	switch op {
	case "=":
		return rollingjoin.EQ, nil
	case "<>", "!=":
		return rollingjoin.NE, nil
	case "<":
		return rollingjoin.LT, nil
	case "<=":
		return rollingjoin.LE, nil
	case ">":
		return rollingjoin.GT, nil
	case ">=":
		return rollingjoin.GE, nil
	default:
		return 0, fmt.Errorf("sql: unknown operator %q", op)
	}
}

func (s *Session) delete(st *Delete) (*Result, error) {
	filters, err := condsToFilters(st.Table, st.Where, nil)
	if err != nil {
		return nil, err
	}
	var n int
	csn, err := s.DB.Update(func(tx *rollingjoin.Tx) error {
		var err error
		n, err = tx.DeleteMatching(st.Table, filters, st.Limit)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("%d row(s) deleted at commit %d", n, csn)}, nil
}

// toSpec lowers a parsed SELECT to a ViewSpec, resolving aliases to table
// names and unqualified columns by uniqueness across the FROM list.
func (s *Session) toSpec(name string, q *Select) (rollingjoin.ViewSpec, error) {
	spec := rollingjoin.ViewSpec{Name: name}
	alias := make(map[string]string, len(q.From))
	for _, ref := range q.From {
		if _, dup := alias[ref.Alias]; dup {
			return spec, fmt.Errorf("sql: duplicate alias %q", ref.Alias)
		}
		alias[ref.Alias] = ref.Table
		spec.Tables = append(spec.Tables, ref.Table)
	}
	resolveQual := func(qual, col string) (string, error) {
		if qual != "" {
			t, ok := alias[qual]
			if !ok {
				return "", fmt.Errorf("sql: unknown table or alias %q", qual)
			}
			return t, nil
		}
		// Unqualified: find the unique FROM relation having the column.
		// RelationSchema also resolves maintained views, so FROM <view>
		// cascades work.
		var found string
		for _, ref := range q.From {
			schema, err := core.RelationSchema(s.DB.Engine(), ref.Table)
			if err != nil {
				return "", err
			}
			if schema.Index(col) >= 0 {
				if found != "" {
					return "", fmt.Errorf("sql: column %q is ambiguous", col)
				}
				found = ref.Table
			}
		}
		if found == "" {
			return "", fmt.Errorf("sql: unknown column %q", col)
		}
		return found, nil
	}
	for _, j := range q.Joins {
		lt, err := resolveQual(j.LeftQual, j.LeftCol)
		if err != nil {
			return spec, err
		}
		rt, err := resolveQual(j.RightQual, j.RightCol)
		if err != nil {
			return spec, err
		}
		spec.Joins = append(spec.Joins, rollingjoin.Join{
			LeftTable: lt, LeftColumn: j.LeftCol, RightTable: rt, RightColumn: j.RightCol,
		})
	}
	for _, c := range q.Where {
		t, err := resolveQual(c.Qual, c.Col)
		if err != nil {
			return spec, err
		}
		op, err := cmpOp(c.Op)
		if err != nil {
			return spec, err
		}
		spec.Filters = append(spec.Filters, rollingjoin.Filter{Table: t, Column: c.Col, Op: op, Value: c.Val})
	}
	if !q.Star {
		for _, o := range q.Cols {
			t, err := resolveQual(o.Qual, o.Col)
			if err != nil {
				return spec, err
			}
			spec.Output = append(spec.Output, rollingjoin.OutCol{Table: t, Column: o.Col})
		}
	}
	return spec, nil
}

func (s *Session) selectStmt(q *Select) (*Result, error) {
	// SELECT with GROUP BY computes a one-shot aggregation.
	if len(q.Aggs) > 0 {
		return s.adhocAggregate(q)
	}
	// SELECT * FROM <view> reads materialized contents.
	if len(q.From) == 1 && len(q.Joins) == 0 {
		if v, ok := s.DB.View(q.From[0].Table); ok {
			return s.selectFromRelation(v.Relation(), v.Name(), q)
		}
		if uv, ok := s.unions[q.From[0].Table]; ok {
			return s.selectFromRelation(uv.Relation(), uv.Name(), q)
		}
		if av, ok := s.DB.Aggregate(q.From[0].Table); ok {
			return s.selectFromRelation(av.Relation(), av.Name(), q)
		}
	}
	spec, err := s.toSpec("adhoc", q)
	if err != nil {
		return nil, err
	}
	res, err := s.DB.Query(spec)
	if err != nil {
		return nil, err
	}
	out := &Result{Columns: res.Columns}
	for _, row := range res.Rows {
		out.Rows = append(out.Rows, renderTuple(row))
	}
	return out, nil
}

func (s *Session) selectFromRelation(rel *relalg.Relation, viewName string, q *Select) (*Result, error) {
	schema := rel.Schema
	// Optional projection and filters against the view's output schema.
	var outIdx []int
	var cols []string
	if q.Star {
		for i, c := range schema.Columns {
			outIdx = append(outIdx, i)
			cols = append(cols, c.Name)
		}
	} else {
		for _, o := range q.Cols {
			c := schema.Index(o.Col)
			if c < 0 {
				return nil, fmt.Errorf("sql: view %q has no output column %q", viewName, o.Col)
			}
			outIdx = append(outIdx, c)
			cols = append(cols, o.Col)
		}
	}
	var pred relalg.And
	for _, c := range q.Where {
		ci := schema.Index(c.Col)
		if ci < 0 {
			return nil, fmt.Errorf("sql: view %q has no output column %q", viewName, c.Col)
		}
		op, err := cmpOp(c.Op)
		if err != nil {
			return nil, err
		}
		pred = append(pred, relalg.ColConst{Col: ci, Op: op, Val: c.Val})
	}
	out := &Result{Columns: cols}
	for _, row := range rel.Rows {
		if len(pred) > 0 && !pred.Eval(row.Tuple) {
			continue
		}
		for i := int64(0); i < row.Count; i++ {
			out.Rows = append(out.Rows, renderTuple(row.Tuple.Project(outIdx)))
		}
	}
	return out, nil
}

// aggFunc maps a parsed aggregate keyword to the library's function id.
func aggFunc(name string) (rollingjoin.AggFunc, error) {
	switch name {
	case "COUNT":
		return rollingjoin.AggCount, nil
	case "SUM":
		return rollingjoin.AggSum, nil
	case "AVG":
		return rollingjoin.AggAvg, nil
	case "MIN":
		return rollingjoin.AggMin, nil
	case "MAX":
		return rollingjoin.AggMax, nil
	default:
		return 0, fmt.Errorf("sql: unknown aggregate %q", name)
	}
}

// aggOutName is the output column name for an aggregate item, matching
// DefineAggregate's defaults.
func aggOutName(a AggRef) string {
	if a.As != "" {
		return a.As
	}
	if a.Func == "COUNT" {
		return "count"
	}
	return strings.ToLower(a.Func) + "_" + a.Col
}

// checkAggShape validates the single-relation shape shared by maintained
// aggregate views and one-shot GROUP BY selects, and verifies qualifiers.
func checkAggShape(q *Select) error {
	if len(q.From) != 1 || len(q.Joins) > 0 {
		return errors.New("sql: GROUP BY reads exactly one relation; define a join view first and aggregate over it")
	}
	src := q.From[0]
	check := func(qual string) error {
		if qual != "" && qual != src.Alias && qual != src.Table {
			return fmt.Errorf("sql: unknown table or alias %q", qual)
		}
		return nil
	}
	for _, g := range q.GroupBy {
		if err := check(g.Qual); err != nil {
			return err
		}
	}
	for _, a := range q.Aggs {
		if err := check(a.Qual); err != nil {
			return err
		}
	}
	for _, c := range q.Where {
		if err := check(c.Qual); err != nil {
			return err
		}
	}
	return nil
}

// adhocAggregate evaluates a one-shot SELECT ... GROUP BY by folding the
// source rows (a base table or any maintained relation) in the session.
// WHERE conditions filter source rows before grouping.
func (s *Session) adhocAggregate(q *Select) (*Result, error) {
	if err := checkAggShape(q); err != nil {
		return nil, err
	}
	src := q.From[0].Table
	schema, err := core.RelationSchema(s.DB.Engine(), src)
	if err != nil {
		return nil, err
	}
	colIdx := func(name string) (int, error) {
		c := schema.Index(name)
		if c < 0 {
			return -1, fmt.Errorf("sql: no column %q in relation %q", name, src)
		}
		return c, nil
	}
	groupIdx := make([]int, len(q.GroupBy))
	for i, g := range q.GroupBy {
		if groupIdx[i], err = colIdx(g.Col); err != nil {
			return nil, err
		}
	}
	aggIdx := make([]int, len(q.Aggs))
	for i, a := range q.Aggs {
		aggIdx[i] = -1
		if a.Func != "COUNT" {
			if aggIdx[i], err = colIdx(a.Col); err != nil {
				return nil, err
			}
		}
	}
	// Source rows at a consistent recent state: the current committed state
	// for a base table, the propagation high-water mark for a maintained
	// relation.
	spec := rollingjoin.ViewSpec{Tables: []string{src}}
	for _, c := range q.Where {
		op, err := cmpOp(c.Op)
		if err != nil {
			return nil, err
		}
		spec.Filters = append(spec.Filters, rollingjoin.Filter{Table: src, Column: c.Col, Op: op, Value: c.Val})
	}
	res, err := s.DB.Query(spec)
	if err != nil {
		return nil, err
	}
	type group struct {
		key     tuple.Tuple
		count   int64
		sums    []float64
		extrema []tuple.Value // current MIN/MAX per agg position
	}
	groups := make(map[string]*group)
	for _, row := range res.Rows {
		key := make(tuple.Tuple, len(groupIdx))
		var enc []byte
		for i, c := range groupIdx {
			key[i] = row[c]
			enc = tuple.EncodeKeyValue(enc, row[c])
		}
		g := groups[string(enc)]
		if g == nil {
			g = &group{key: key, sums: make([]float64, len(q.Aggs)), extrema: make([]tuple.Value, len(q.Aggs))}
			groups[string(enc)] = g
		}
		g.count++
		for i, a := range q.Aggs {
			switch a.Func {
			case "SUM", "AVG":
				g.sums[i] += row[aggIdx[i]].AsFloat()
			case "MIN", "MAX":
				v := row[aggIdx[i]]
				if g.extrema[i].Kind() == tuple.KindNull {
					g.extrema[i] = v
					continue
				}
				have := tuple.EncodeKeyValue(nil, g.extrema[i])
				cand := tuple.EncodeKeyValue(nil, v)
				if (a.Func == "MIN") == (string(cand) < string(have)) {
					g.extrema[i] = v
				}
			}
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := &Result{}
	for _, g := range q.GroupBy {
		out.Columns = append(out.Columns, g.Col)
	}
	for _, a := range q.Aggs {
		out.Columns = append(out.Columns, aggOutName(a))
	}
	for _, k := range keys {
		g := groups[k]
		row := make(tuple.Tuple, 0, len(out.Columns))
		row = append(row, g.key...)
		for i, a := range q.Aggs {
			switch a.Func {
			case "COUNT":
				row = append(row, tuple.Int(g.count))
			case "SUM":
				row = append(row, tuple.Float(g.sums[i]))
			case "AVG":
				row = append(row, tuple.Float(g.sums[i]/float64(g.count)))
			default:
				row = append(row, g.extrema[i])
			}
		}
		out.Rows = append(out.Rows, renderTuple(row))
	}
	return out, nil
}

func renderTuple(t tuple.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = v.String()
	}
	return out
}

func (s *Session) createView(st *CreateView) (*Result, error) {
	opt := rollingjoin.Maintain{Manual: st.Manual}
	if st.Interval > 0 {
		opt.Interval = rollingjoin.CSN(st.Interval)
	}
	for _, d := range st.Intervals {
		opt.Intervals = append(opt.Intervals, rollingjoin.CSN(d))
	}
	if st.Stepwise {
		opt.Algorithm = rollingjoin.AlgorithmStepwise
	}
	if len(st.Branches) == 1 {
		if q := st.Branches[0]; len(q.Aggs) > 0 {
			return s.createAggregate(st, q, opt)
		}
		spec, err := s.toSpec(st.Name, st.Branches[0])
		if err != nil {
			return nil, err
		}
		if _, err := s.DB.DefineView(spec, opt); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("materialized view %s created", st.Name)}, nil
	}
	// UNION of several branches: a union view.
	for _, b := range st.Branches {
		if len(b.Aggs) > 0 {
			return nil, errors.New("sql: UNION branches cannot contain GROUP BY; aggregate over the union view instead")
		}
	}
	if st.Stepwise {
		return nil, errors.New("sql: union views use the rolling algorithm (drop STEPWISE)")
	}
	if _, dup := s.unions[st.Name]; dup {
		return nil, fmt.Errorf("sql: union view %q already exists", st.Name)
	}
	specs := make([]rollingjoin.ViewSpec, len(st.Branches))
	for i, b := range st.Branches {
		spec, err := s.toSpec(fmt.Sprintf("%s#%d", st.Name, i+1), b)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	uv, err := s.DB.DefineUnionView(st.Name, specs, opt)
	if err != nil {
		return nil, err
	}
	s.unions[st.Name] = uv
	return &Result{Message: fmt.Sprintf("materialized union view %s created (%d branches)", st.Name, len(st.Branches))}, nil
}

// createAggregate lowers CREATE MATERIALIZED VIEW ... GROUP BY to a
// first-class maintained aggregate. The source may be a base table or any
// maintained relation (a view, union view, or another aggregate), so
// cascades are expressible purely in SQL.
func (s *Session) createAggregate(st *CreateView, q *Select, opt rollingjoin.Maintain) (*Result, error) {
	if err := checkAggShape(q); err != nil {
		return nil, err
	}
	if len(q.Where) > 0 {
		return nil, errors.New("sql: WHERE is not supported in an aggregate view; define a filtered view first and aggregate over it")
	}
	if st.Stepwise {
		return nil, errors.New("sql: aggregates use group-level compensation (drop STEPWISE)")
	}
	src := q.From[0].Table
	spec := rollingjoin.AggSpec{Name: st.Name, Source: src}
	for _, g := range q.GroupBy {
		spec.GroupBy = append(spec.GroupBy, g.Col)
	}
	for _, a := range q.Aggs {
		fn, err := aggFunc(a.Func)
		if err != nil {
			return nil, err
		}
		spec.Aggs = append(spec.Aggs, rollingjoin.Agg{Func: fn, Column: a.Col, As: a.As})
	}
	if _, err := s.DB.DefineAggregate(spec, opt); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("materialized aggregate %s created over %s", st.Name, src)}, nil
}

func (s *Session) refresh(st *Refresh) (*Result, error) {
	type refreshable interface {
		CatchUp(rollingjoin.CSN) error
		RefreshTo(rollingjoin.CSN) error
		Refresh() (rollingjoin.CSN, error)
	}
	var v refreshable
	if pv, ok := s.DB.View(st.Name); ok {
		v = pv
	} else if uv, ok := s.unions[st.Name]; ok {
		v = uv
	} else if av, ok := s.DB.Aggregate(st.Name); ok {
		v = av
	} else {
		return nil, fmt.Errorf("sql: no view %q", st.Name)
	}
	if st.ToCSN >= 0 {
		if err := v.CatchUp(rollingjoin.CSN(st.ToCSN)); err != nil {
			return nil, err
		}
		if err := v.RefreshTo(rollingjoin.CSN(st.ToCSN)); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("view %s refreshed to commit %d", st.Name, st.ToCSN)}, nil
	}
	if err := v.CatchUp(s.DB.LastCSN()); err != nil {
		return nil, err
	}
	csn, err := v.Refresh()
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("view %s refreshed to commit %d", st.Name, csn)}, nil
}

func (s *Session) show(st *Show) (*Result, error) {
	switch st.What {
	case "TABLES":
		out := &Result{Columns: []string{"table", "columns"}}
		for _, name := range s.DB.TableNames() {
			if strings.HasPrefix(name, "__") {
				continue // internal tables
			}
			t, err := s.DB.Engine().Table(name)
			if err != nil {
				return nil, err
			}
			var cols []string
			for _, c := range t.Schema().Columns {
				cols = append(cols, c.Name+" "+c.Kind.String())
			}
			out.Rows = append(out.Rows, []string{name, strings.Join(cols, ", ")})
		}
		return out, nil
	case "VIEWS":
		out := &Result{Columns: []string{"view", "mat_time", "hwm"}}
		for _, name := range s.DB.ViewNames() {
			v, _ := s.DB.View(name)
			out.Rows = append(out.Rows, []string{
				name, fmt.Sprint(v.MatTime()), fmt.Sprint(v.HWM()),
			})
		}
		unames := make([]string, 0, len(s.unions))
		for n := range s.unions {
			unames = append(unames, n)
		}
		sort.Strings(unames)
		for _, name := range unames {
			uv := s.unions[name]
			out.Rows = append(out.Rows, []string{
				name + " (union)", fmt.Sprint(uv.MatTime()), fmt.Sprint(uv.HWM()),
			})
		}
		for _, name := range s.DB.AggregateNames() {
			av, _ := s.DB.Aggregate(name)
			out.Rows = append(out.Rows, []string{
				name + " (aggregate)", fmt.Sprint(av.MatTime()), fmt.Sprint(av.HWM()),
			})
		}
		return out, nil
	case "STATS":
		if av, ok := s.DB.Aggregate(st.Name); ok {
			as := av.Stats()
			out := &Result{Columns: []string{"metric", "value"}}
			add := func(k string, val interface{}) {
				out.Rows = append(out.Rows, []string{k, fmt.Sprint(val)})
			}
			add("groups", as.GroupCount)
			add("steps run", as.StepsRun)
			add("source rows folded", as.SourceRowsFolded)
			add("delta rows produced", as.DeltaRowsProduced)
			add("delta rows pending", as.DeltaRowsPending)
			add("rows applied", as.RowsApplied)
			add("refreshes", as.Refreshes)
			add("high-water mark", as.HWM)
			add("materialization time", as.MatTime)
			return out, nil
		}
		v, ok := s.DB.View(st.Name)
		if !ok {
			return nil, fmt.Errorf("sql: no view %q", st.Name)
		}
		vs := v.Stats()
		out := &Result{Columns: []string{"metric", "value"}}
		add := func(k string, val interface{}) {
			out.Rows = append(out.Rows, []string{k, fmt.Sprint(val)})
		}
		add("forward queries", vs.ForwardQueries)
		add("compensation queries", vs.CompensationQueries)
		add("skipped empty windows", vs.SkippedEmptyWindows)
		add("delta rows produced", vs.DeltaRowsProduced)
		add("delta rows pending", vs.DeltaRowsPending)
		add("rows applied", vs.RowsApplied)
		add("refreshes", vs.Refreshes)
		add("high-water mark", vs.HWM)
		add("materialization time", vs.MatTime)
		return out, nil
	default:
		return nil, errors.New("sql: unknown SHOW target")
	}
}
