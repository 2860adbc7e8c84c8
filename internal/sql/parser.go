package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/tuple"
)

// ParseError reports a parse failure.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("sql: at offset %d: %s", e.Pos, e.Msg) }

type parser struct {
	toks []token
	i    int
}

// Parse parses a single statement (a trailing semicolon is allowed).
func Parse(input string) (Statement, error) {
	stmts, err := ParseAll(input)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated script.
func ParseAll(input string) ([]Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Statement
	for {
		for p.peek().kind == tokPunct && p.peek().text == ";" {
			p.next()
		}
		if p.peek().kind == tokEOF {
			return stmts, nil
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if p.peek().kind != tokEOF {
			if _, err := p.expectPunct(";"); err != nil {
				return nil, err
			}
		}
	}
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if p.peek().kind == tokPunct && p.peek().text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) (token, error) {
	if p.peek().kind == tokPunct && p.peek().text == s {
		return p.next(), nil
	}
	return token{}, p.errf("expected %q, found %s", s, p.peek())
}

// ident accepts an identifier (keywords are not identifiers).
func (p *parser) ident() (string, error) {
	if p.peek().kind == tokIdent {
		return p.next().text, nil
	}
	return "", p.errf("expected identifier, found %s", p.peek())
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.acceptKeyword("CREATE"):
		switch {
		case p.acceptKeyword("TABLE"):
			return p.createTable()
		case p.acceptKeyword("MATERIALIZED"):
			if err := p.expectKeyword("VIEW"); err != nil {
				return nil, err
			}
			return p.createView()
		default:
			return nil, p.errf("expected TABLE or MATERIALIZED VIEW after CREATE")
		}
	case p.acceptKeyword("INSERT"):
		return p.insert()
	case p.acceptKeyword("DELETE"):
		return p.delete()
	case p.acceptKeyword("SELECT"):
		return p.selectStmt()
	case p.acceptKeyword("REFRESH"):
		return p.refresh()
	case p.acceptKeyword("DROP"):
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropView{Name: name}, nil
	case p.acceptKeyword("SHOW"):
		return p.show()
	default:
		return nil, p.errf("expected a statement, found %s", p.peek())
	}
}

func parseType(word string) (tuple.Kind, bool) {
	switch word {
	case "INT", "BIGINT":
		return tuple.KindInt, true
	case "FLOAT", "DOUBLE":
		return tuple.KindFloat, true
	case "TEXT", "STRING", "VARCHAR":
		return tuple.KindString, true
	case "BOOL", "BOOLEAN":
		return tuple.KindBool, true
	case "BYTES", "BLOB":
		return tuple.KindBytes, true
	}
	return 0, false
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var cols []ColDef
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokKeyword {
			return nil, p.errf("expected a type for column %q", col)
		}
		kind, ok := parseType(t.text)
		if !ok {
			return nil, p.errf("unknown type %s", t.text)
		}
		cols = append(cols, ColDef{Name: col, Type: kind})
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &CreateTable{Name: name, Cols: cols}, nil
}

// literal parses a literal value.
func (p *parser) literal() (tuple.Value, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return tuple.Value{}, p.errf("bad number %q", t.text)
			}
			return tuple.Float(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return tuple.Value{}, p.errf("bad integer %q", t.text)
		}
		return tuple.Int(n), nil
	case t.kind == tokString:
		p.next()
		return tuple.String_(t.text), nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.next()
		return tuple.Null(), nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.next()
		return tuple.Bool(true), nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.next()
		return tuple.Bool(false), nil
	default:
		return tuple.Value{}, p.errf("expected a literal, found %s", t)
	}
}

func (p *parser) insert() (Statement, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]tuple.Value
	for {
		if _, err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []tuple.Value
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	return &Insert{Table: name, Rows: rows}, nil
}

// qualified parses ident[.ident], returning (qual, col).
func (p *parser) qualified() (string, string, error) {
	a, err := p.ident()
	if err != nil {
		return "", "", err
	}
	if p.acceptPunct(".") {
		b, err := p.ident()
		if err != nil {
			return "", "", err
		}
		return a, b, nil
	}
	return "", a, nil
}

var cmpOps = map[string]bool{"=": true, "<>": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) whereConds() ([]Cond, error) {
	var conds []Cond
	for {
		qual, col, err := p.qualified()
		if err != nil {
			return nil, err
		}
		op := p.peek()
		if op.kind != tokPunct || !cmpOps[op.text] {
			return nil, p.errf("expected a comparison operator, found %s", op)
		}
		p.next()
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		conds = append(conds, Cond{Qual: qual, Col: col, Op: op.text, Val: v})
		if p.acceptKeyword("AND") {
			continue
		}
		return conds, nil
	}
}

func (p *parser) delete() (Statement, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: name}
	if p.acceptKeyword("WHERE") {
		conds, err := p.whereConds()
		if err != nil {
			return nil, err
		}
		d.Where = conds
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errf("expected a number after LIMIT")
		}
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		d.Limit = n
	}
	return d, nil
}

// aggFuncs are the aggregate functions accepted in a SELECT list.
var aggFuncs = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

// aggRef parses FUNC(*) / FUNC(col) [AS ident]; the function keyword has
// already been consumed.
func (p *parser) aggRef(fn string) (AggRef, error) {
	a := AggRef{Func: fn}
	if _, err := p.expectPunct("("); err != nil {
		return a, err
	}
	if fn == "COUNT" {
		if _, err := p.expectPunct("*"); err != nil {
			return a, p.errf("COUNT takes *, found %s", p.peek())
		}
	} else {
		if p.acceptPunct("*") {
			return a, p.errf("%s takes a column, not *", fn)
		}
		qual, col, err := p.qualified()
		if err != nil {
			return a, err
		}
		a.Qual, a.Col = qual, col
	}
	if _, err := p.expectPunct(")"); err != nil {
		return a, err
	}
	if p.acceptKeyword("AS") {
		as, err := p.ident()
		if err != nil {
			return a, err
		}
		a.As = as
	}
	return a, nil
}

func (p *parser) selectStmt() (*Select, error) {
	s := &Select{}
	if p.acceptPunct("*") {
		s.Star = true
	} else {
		for {
			if t := p.peek(); t.kind == tokKeyword && aggFuncs[t.text] {
				a, err := p.aggRef(p.next().text)
				if err != nil {
					return nil, err
				}
				s.Aggs = append(s.Aggs, a)
			} else {
				qual, col, err := p.qualified()
				if err != nil {
					return nil, err
				}
				s.Cols = append(s.Cols, OutRef{Qual: qual, Col: col})
			}
			if p.acceptPunct(",") {
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	ref, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	s.From = append(s.From, ref)
	for p.acceptKeyword("JOIN") {
		ref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, ref)
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		for {
			lq, lc, err := p.qualified()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("="); err != nil {
				return nil, err
			}
			rq, rc, err := p.qualified()
			if err != nil {
				return nil, err
			}
			s.Joins = append(s.Joins, JoinCond{LeftQual: lq, LeftCol: lc, RightQual: rq, RightCol: rc})
			if p.acceptKeyword("AND") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		conds, err := p.whereConds()
		if err != nil {
			return nil, err
		}
		s.Where = conds
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			qual, col, err := p.qualified()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, OutRef{Qual: qual, Col: col})
			if p.acceptPunct(",") {
				continue
			}
			break
		}
	}
	// Shape checks: aggregates and GROUP BY come together, and the
	// non-aggregated select columns must be exactly the grouping columns.
	switch {
	case len(s.Aggs) > 0 && len(s.GroupBy) == 0:
		return nil, p.errf("aggregate SELECT requires GROUP BY")
	case len(s.GroupBy) > 0 && len(s.Aggs) == 0:
		return nil, p.errf("GROUP BY requires an aggregate in the SELECT list")
	case len(s.GroupBy) > 0 && s.Star:
		return nil, p.errf("SELECT * cannot be combined with GROUP BY")
	case len(s.GroupBy) > 0 && len(s.Cols) != len(s.GroupBy):
		return nil, p.errf("SELECT columns must match the GROUP BY columns")
	}
	for i, g := range s.GroupBy {
		if c := s.Cols[i]; c.Col != g.Col || c.Qual != g.Qual {
			return nil, p.errf("SELECT column %q does not match GROUP BY column %q", c.Col, g.Col)
		}
	}
	return s, nil
}

func (p *parser) tableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name, Alias: name}
	if p.peek().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

func (p *parser) createView() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	cv := &CreateView{Name: name, Branches: []*Select{q}}
	for p.acceptKeyword("UNION") {
		if err := p.expectKeyword("SELECT"); err != nil {
			return nil, err
		}
		b, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		cv.Branches = append(cv.Branches, b)
	}
	if p.acceptKeyword("WITH") {
		for {
			switch {
			case p.acceptKeyword("INTERVAL"):
				n, err := p.number()
				if err != nil {
					return nil, err
				}
				cv.Interval = n
			case p.acceptKeyword("INTERVALS"):
				if _, err := p.expectPunct("("); err != nil {
					return nil, err
				}
				for {
					n, err := p.number()
					if err != nil {
						return nil, err
					}
					cv.Intervals = append(cv.Intervals, n)
					if p.acceptPunct(",") {
						continue
					}
					break
				}
				if _, err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			case p.acceptKeyword("MANUAL"):
				cv.Manual = true
			case p.acceptKeyword("STEPWISE"):
				cv.Stepwise = true
			default:
				return nil, p.errf("expected a view option (INTERVAL, INTERVALS, MANUAL, STEPWISE)")
			}
			if p.acceptPunct(",") {
				continue
			}
			break
		}
	}
	return cv, nil
}

func (p *parser) number() (int64, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, p.errf("expected a number, found %s", t)
	}
	p.next()
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, p.errf("bad number %q", t.text)
	}
	return n, nil
}

func (p *parser) refresh() (Statement, error) {
	r := &Refresh{ToCSN: -1}
	if !p.acceptKeyword("VIEW") {
		return nil, p.errf("expected VIEW after REFRESH")
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	r.Name = name
	if p.acceptKeyword("TO") {
		if err := p.expectKeyword("COMMIT"); err != nil {
			return nil, err
		}
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		r.ToCSN = n
	}
	return r, nil
}

func (p *parser) show() (Statement, error) {
	switch {
	case p.acceptKeyword("TABLES"):
		return &Show{What: "TABLES"}, nil
	case p.acceptKeyword("VIEWS"):
		return &Show{What: "VIEWS"}, nil
	case p.acceptKeyword("STATS"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &Show{What: "STATS", Name: name}, nil
	default:
		return nil, p.errf("expected TABLES, VIEWS, or STATS after SHOW")
	}
}
