package sqlagg

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"newswire/internal/value"
)

// Type is the static type of a schema field.
type Type uint8

// Field types. Int and Time fields are ordered; String and Strings are
// not. A Strings field is multi-valued: its atoms match when any element
// does.
const (
	TypeString Type = iota + 1
	TypeInt
	TypeTime // literals are RFC 3339 or YYYY-MM-DD string literals
	TypeStrings
)

func (t Type) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "integer"
	case TypeTime:
		return "timestamp"
	case TypeStrings:
		return "string set"
	default:
		return "unknown"
	}
}

func (t Type) ordered() bool { return t == TypeInt || t == TypeTime }

// Field is one schema column: its canonical name and type.
type Field struct {
	Name string
	Type Type
}

// Schema is the field table a typed predicate is checked against. Keys
// are lower-case spellings, canonical names and aliases alike, so field
// lookup is case-insensitive.
//
// A typed predicate is a boolean combination (AND, OR, NOT, TRUE, FALSE)
// of atoms of the form "field op literal", "field [NOT] IN (literals)",
// "field [NOT] LIKE 'pattern'" and "field [NOT] BETWEEN lit AND lit":
// no arithmetic, function calls or field-to-field comparisons. The check
// rejects unknown fields, literals of the wrong type, ordered comparisons
// and BETWEEN on unordered fields, and LIKE on non-string fields. It
// rewrites field names to their canonical spelling, timestamp string
// literals to time values, and "strings = lit" / "!=" to IN / NOT IN.
type Schema map[string]Field

// Names returns the canonical field names, sorted.
func (s Schema) Names() []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range s {
		if !seen[f.Name] {
			seen[f.Name] = true
			out = append(out, f.Name)
		}
	}
	sort.Strings(out)
	return out
}

// checker is the schema type-check pass over a parsed predicate.
type checker struct {
	schema Schema
	src    string
}

func (c *checker) errorf(e Expr, format string, args ...any) error {
	return &SyntaxError{Pos: exprPos(e), Msg: fmt.Sprintf(format, args...), Src: c.src}
}

// exprPos is the source offset of e's leftmost column or literal.
func exprPos(e Expr) int {
	switch n := e.(type) {
	case *ColumnRef:
		return n.Pos
	case *Literal:
		return n.Pos
	case *Unary:
		return exprPos(n.X)
	case *Binary:
		return exprPos(n.L)
	case *In:
		return exprPos(n.X)
	case *Like:
		return exprPos(n.X)
	case *Between:
		return exprPos(n.X)
	case *Call:
		if len(n.Args) > 0 {
			return exprPos(n.Args[0])
		}
	}
	return 0
}

// boolean checks e in a boolean position and returns its typed form.
func (c *checker) boolean(e Expr) (Expr, error) {
	var err error
	switch n := e.(type) {
	case *Literal:
		if n.Val.Kind() == value.KindBool {
			return n, nil
		}
	case *Unary:
		if n.Op == "NOT" {
			n.X, err = c.boolean(n.X)
			return n, err
		}
	case *Binary:
		switch n.Op {
		case "AND", "OR":
			if n.L, err = c.boolean(n.L); err != nil {
				return nil, err
			}
			n.R, err = c.boolean(n.R)
			return n, err
		case "=", "!=", "<", "<=", ">", ">=":
			return c.compare(n)
		}
	case *In:
		f, err := c.field(n.X)
		if err != nil {
			return nil, err
		}
		for i := range n.List {
			if n.List[i], err = c.literal(n.List[i], f); err != nil {
				return nil, err
			}
		}
		return n, nil
	case *Like:
		f, err := c.field(n.X)
		if err != nil {
			return nil, err
		}
		if f.Type != TypeString && f.Type != TypeStrings {
			return nil, c.errorf(n, "LIKE requires a string field, %s is %s", f.Name, f.Type)
		}
		return n, nil
	case *Between:
		f, err := c.field(n.X)
		if err != nil {
			return nil, err
		}
		if !f.Type.ordered() {
			return nil, c.errorf(n, "BETWEEN requires an ordered field, %s is %s", f.Name, f.Type)
		}
		if n.Lo, err = c.literal(n.Lo, f); err != nil {
			return nil, err
		}
		n.Hi, err = c.literal(n.Hi, f)
		return n, err
	}
	return nil, c.errorf(e, "expected a comparison of a field with a literal, TRUE, or FALSE, found %s", e)
}

// compare checks "field op literal". A string-set field only takes = and
// !=, which become IN and NOT IN: "some element equals" and its negation.
func (c *checker) compare(n *Binary) (Expr, error) {
	f, err := c.field(n.L)
	if err != nil {
		return nil, err
	}
	ordered := n.Op != "=" && n.Op != "!="
	if ordered && !f.Type.ordered() {
		return nil, c.errorf(n.R, "ordered comparison %s requires an ordered field, %s is %s", n.Op, f.Name, f.Type)
	}
	if n.R, err = c.literal(n.R, f); err != nil {
		return nil, err
	}
	if f.Type == TypeStrings {
		return &In{X: n.L, List: []Expr{n.R}, Not: n.Op == "!="}, nil
	}
	return n, nil
}

// field resolves a column reference to its schema field and rewrites the
// reference to the canonical name.
func (c *checker) field(e Expr) (Field, error) {
	col, ok := e.(*ColumnRef)
	if !ok {
		return Field{}, c.errorf(e, "expected a field name, found %s", e)
	}
	f, ok := c.schema[strings.ToLower(col.Name)]
	if !ok {
		return Field{}, c.errorf(e, "unknown field %q (fields: %s)", col.Name, strings.Join(c.schema.Names(), ", "))
	}
	col.Name = f.Name
	return f, nil
}

// literal checks that e is a literal of f's type and returns it in that
// type: a negated number folds into one literal, and a timestamp field's
// string literal becomes a time value.
func (c *checker) literal(e Expr, f Field) (Expr, error) {
	lit, ok := e.(*Literal)
	if u, neg := e.(*Unary); neg && u.Op == "-" {
		if l, isLit := u.X.(*Literal); isLit && l.Val.IsNumeric() {
			lit, ok = &Literal{Val: applyUnary("-", l.Val), Pos: l.Pos}, true
		}
	}
	switch {
	case !ok:
	case f.Type == TypeInt && lit.Val.Kind() == value.KindInt:
		return lit, nil
	case f.Type == TypeTime && lit.Val.Kind() == value.KindString:
		s, _ := lit.Val.AsString()
		t, err := parseTimeLiteral(s)
		if err != nil {
			return nil, c.errorf(e, "%s: %v", f.Name, err)
		}
		return &Literal{Val: value.Time(t), Pos: lit.Pos}, nil
	case (f.Type == TypeString || f.Type == TypeStrings) && lit.Val.Kind() == value.KindString:
		return lit, nil
	}
	want := "a string literal"
	switch f.Type {
	case TypeInt:
		want = "an integer literal"
	case TypeTime:
		want = "a timestamp string literal"
	}
	return nil, c.errorf(e, "%s requires %s, found %s", f.Name, want, e)
}

// parseTimeLiteral reads an RFC 3339 timestamp or a YYYY-MM-DD date. The
// time must fit a value.Time, which holds nanoseconds since 1970 in an
// int64 (years 1678 to 2262).
func parseTimeLiteral(s string) (time.Time, error) {
	for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02"} {
		t, err := time.Parse(layout, s)
		if err != nil {
			continue
		}
		if !time.Unix(0, t.UnixNano()).Equal(t) {
			return time.Time{}, fmt.Errorf("%q is outside the representable years 1678 to 2262", s)
		}
		return t, nil
	}
	return time.Time{}, fmt.Errorf("%q is not an RFC 3339 timestamp or YYYY-MM-DD date", s)
}
