// Package sql implements a small SQL dialect over the rollingjoin library:
// CREATE TABLE, INSERT, DELETE, ad-hoc SELECT over select-project-join
// queries, CREATE MATERIALIZED VIEW with maintenance options, and REFRESH
// statements including point-in-time targets. cmd/rollsh wraps it in an
// interactive shell.
//
// The dialect exists because the paper's prototype lived inside a SQL
// database (DB2): defining views and driving refresh through statements is
// the natural interface for the system.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokPunct
)

type token struct {
	kind tokenKind
	text string // keywords uppercased; idents as written; punct literal
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords recognized by the dialect.
var keywords = map[string]bool{
	"CREATE": true, "TABLE": true, "MATERIALIZED": true, "VIEW": true,
	"AS": true, "SELECT": true, "FROM": true, "JOIN": true, "ON": true,
	"WHERE": true, "AND": true, "INSERT": true, "INTO": true, "VALUES": true,
	"DELETE": true, "LIMIT": true, "REFRESH": true, "TO": true, "SHOW": true,
	"TABLES": true, "VIEWS": true, "WITH": true, "INTERVAL": true,
	"INTERVALS": true, "DROP": true, "NULL": true, "TRUE": true, "FALSE": true,
	"INT": true, "BIGINT": true, "FLOAT": true, "DOUBLE": true, "TEXT": true,
	"STRING": true, "VARCHAR": true, "BOOL": true, "BOOLEAN": true,
	"BYTES": true, "BLOB": true, "STATS": true, "MANUAL": true, "STEPWISE": true,
	"GROUP": true, "BY": true, "SUM": true,
	"COUNT": true, "AVG": true, "MIN": true, "MAX": true,
	"COMMIT": true, "AT": true, "UNION": true,
}

// lexError reports a lexing failure with position context.
type lexError struct {
	pos int
	msg string
}

func (e *lexError) Error() string { return fmt.Sprintf("sql: at offset %d: %s", e.pos, e.msg) }

// lex tokenizes the input.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			// Line comment.
			for i < n && input[i] != '\n' {
				i++
			}
		case isDigit(c) || (c == '-' && i+1 < n && isDigit(input[i+1])):
			start := i
			i++
			for i < n && (isDigit(input[i]) || input[i] == '.' || input[i] == 'e' ||
				input[i] == 'E' || (input[i] == '-' && (input[i-1] == 'e' || input[i-1] == 'E'))) {
				i++
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, &lexError{start, "unterminated string literal"}
			}
			toks = append(toks, token{tokString, sb.String(), start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{tokKeyword, up, start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case strings.ContainsRune("(),.;*", rune(c)):
			toks = append(toks, token{tokPunct, string(c), i})
			i++
		case c == '=':
			toks = append(toks, token{tokPunct, "=", i})
			i++
		case c == '<':
			if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
				toks = append(toks, token{tokPunct, input[i : i+2], i})
				i += 2
			} else {
				toks = append(toks, token{tokPunct, "<", i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{tokPunct, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tokPunct, ">", i})
				i++
			}
		case c == '!':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{tokPunct, "!=", i})
				i += 2
			} else {
				return nil, &lexError{i, "unexpected '!'"}
			}
		default:
			return nil, &lexError{i, fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
