package sql

import (
	"repro/internal/tuple"
)

// Statement is the interface implemented by every parsed statement.
type Statement interface{ stmt() }

// ColDef is one column of a CREATE TABLE.
type ColDef struct {
	Name string
	Type tuple.Kind
}

// CreateTable is CREATE TABLE name (col TYPE, ...).
type CreateTable struct {
	Name string
	Cols []ColDef
}

func (*CreateTable) stmt() {}

// Insert is INSERT INTO name VALUES (...), (...).
type Insert struct {
	Table string
	Rows  [][]tuple.Value
}

func (*Insert) stmt() {}

// Cond is one conjunct of a WHERE clause: qualified column, operator,
// literal.
type Cond struct {
	Qual string // table or alias; empty when unqualified
	Col  string
	Op   string // =, <>, !=, <, <=, >, >=
	Val  tuple.Value
}

// Delete is DELETE FROM name WHERE ... [LIMIT n].
type Delete struct {
	Table string
	Where []Cond
	Limit int // 0 = unlimited
}

func (*Delete) stmt() {}

// TableRef is a FROM-list entry with an optional alias.
type TableRef struct {
	Table string
	Alias string // defaults to Table
}

// JoinCond is one ON equi-join condition between qualified columns.
type JoinCond struct {
	LeftQual, LeftCol   string
	RightQual, RightCol string
}

// OutRef is one projected output column.
type OutRef struct {
	Qual string
	Col  string
}

// AggRef is one aggregate function call in a SELECT list:
// COUNT(*) or SUM/AVG/MIN/MAX(col), optionally AS name.
type AggRef struct {
	Func string // COUNT, SUM, AVG, MIN, MAX
	Qual string // empty for COUNT(*)
	Col  string // empty for COUNT(*)
	As   string // optional output column name
}

// Select is SELECT cols FROM t1 [a] JOIN t2 [b] ON ... [WHERE ...]
// [GROUP BY cols]. Star selects every column of the join result. When
// Aggs is non-empty the select is an aggregation: Cols are the grouping
// output columns and GroupBy must be present.
type Select struct {
	Star    bool
	Cols    []OutRef
	Aggs    []AggRef
	From    []TableRef
	Joins   []JoinCond
	Where   []Cond
	GroupBy []OutRef
}

func (*Select) stmt() {}

// CreateView is CREATE MATERIALIZED VIEW name AS select [UNION select ...]
// [WITH opt, ...]. More than one branch defines a union view.
type CreateView struct {
	Name      string
	Branches  []*Select
	Interval  int64
	Intervals []int64
	Manual    bool
	Stepwise  bool
}

func (*CreateView) stmt() {}

// Refresh is REFRESH VIEW name [TO COMMIT n].
type Refresh struct {
	Name  string
	ToCSN int64 // -1 when absent
}

func (*Refresh) stmt() {}

// DropView is DROP VIEW name.
type DropView struct {
	Name string
}

func (*DropView) stmt() {}

// Show is SHOW TABLES, SHOW VIEWS, or SHOW STATS name.
type Show struct {
	What string // "TABLES", "VIEWS", "STATS"
	Name string // for STATS
}

func (*Show) stmt() {}
