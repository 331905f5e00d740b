// Package sqlagg implements the SQL dialect Astrolabe uses for aggregation
// functions — "expressions in SQL that take any number of attributes from
// the child table and produce new attributes for inclusion into the
// appropriate row in the parent table" (paper §3).
//
// A program has the shape
//
//	SELECT <expr> [AS name] {, <expr> [AS name]} [WHERE <expr>]
//
// and is evaluated against a child zone table (a slice of attribute maps),
// producing the parent summary row. Aggregate functions cover everything
// the paper's examples need: MIN/MAX/SUM/AVG/COUNT for load and performance
// summaries, BIT_OR for Bloom-filter aggregation (§6),
// BOOL_OR/BOOL_AND for availability flags, FIRST for representative
// attributes, and MINK/MAXK for electing the k best-loaded multicast
// representatives (§5).
package sqlagg

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token categories.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp      // punctuation and operators
	tokKeyword // SELECT, AS, WHERE, AND, OR, NOT, TRUE, FALSE, IN, LIKE, BETWEEN
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokOp:
		return "operator"
	case tokKeyword:
		return "keyword"
	default:
		return "token"
	}
}

type token struct {
	kind tokenKind
	text string // keywords upper-cased; idents as written; strings unquoted
	pos  int    // byte offset in the source
}

var keywords = map[string]bool{
	"SELECT":  true,
	"AS":      true,
	"WHERE":   true,
	"AND":     true,
	"OR":      true,
	"NOT":     true,
	"TRUE":    true,
	"FALSE":   true,
	"IN":      true,
	"LIKE":    true,
	"BETWEEN": true,
}

// SyntaxError describes a lexical or parse failure with its position.
type SyntaxError struct {
	Pos int
	Msg string
	Src string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sqlagg: %s at offset %d in %q", e.Msg, e.Pos, e.Src)
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errorf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...), Src: l.src}
}

// lex tokenizes the whole source up front.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	var toks []token
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.kind == tokEOF {
			return toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		upper := strings.ToUpper(word)
		if keywords[upper] {
			return token{kind: tokKeyword, text: upper, pos: start}, nil
		}
		return token{kind: tokIdent, text: word, pos: start}, nil

	case isDigit(c):
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		if l.pos < len(l.src) && l.src[l.pos] == '.' {
			l.pos++
			if l.pos >= len(l.src) || !isDigit(l.src[l.pos]) {
				return token{}, l.errorf(start, "malformed number")
			}
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil

	case c == '\'':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errorf(start, "unterminated string literal")
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				// '' is an escaped quote.
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tokString, text: sb.String(), pos: start}, nil
			}
			sb.WriteByte(ch)
			l.pos++
		}

	case strings.ContainsRune("(),*+-/%=", rune(c)):
		l.pos++
		return token{kind: tokOp, text: string(c), pos: start}, nil

	case c == '<':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
			l.pos++
			return token{kind: tokOp, text: l.src[start:l.pos], pos: start}, nil
		}
		return token{kind: tokOp, text: "<", pos: start}, nil

	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, text: ">=", pos: start}, nil
		}
		return token{kind: tokOp, text: ">", pos: start}, nil

	case c == '!':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, text: "!=", pos: start}, nil
		}
		return token{}, l.errorf(start, "unexpected character %q", c)

	default:
		return token{}, l.errorf(start, "unexpected character %q", c)
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
