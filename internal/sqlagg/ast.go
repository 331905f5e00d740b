package sqlagg

import (
	"strings"
	"time"

	"newswire/internal/value"
)

// Expr is a node in the expression tree.
type Expr interface {
	// String renders the expression in (normalized) source form.
	String() string
	exprNode()
}

// ColumnRef references an attribute of the child-table row being evaluated.
type ColumnRef struct {
	Name string
	Pos  int // byte offset in the source, for schema-check errors
}

func (c *ColumnRef) exprNode()      {}
func (c *ColumnRef) String() string { return c.Name }

// Literal is a constant value: a number, string, or boolean, or a
// timestamp that a schema check converted from a string literal.
type Literal struct {
	Val value.Value
	Pos int // byte offset in the source, for schema-check errors
}

func (l *Literal) exprNode() {}
func (l *Literal) String() string {
	if s, ok := l.Val.AsString(); ok {
		return Quote(s)
	}
	if t, ok := l.Val.AsTime(); ok {
		return Quote(t.Format(time.RFC3339Nano))
	}
	return l.Val.String()
}

// Quote renders s as a SQL string literal, doubling embedded quotes.
func Quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// Unary is a prefix operator application: "-x" or "NOT x".
type Unary struct {
	Op string // "-" or "NOT"
	X  Expr
}

func (u *Unary) exprNode() {}
func (u *Unary) String() string {
	if u.Op == "NOT" {
		return "NOT " + u.X.String()
	}
	return u.Op + u.X.String()
}

// Binary is an infix operator application.
type Binary struct {
	Op   string // arithmetic, comparison, AND, OR
	L, R Expr
}

func (b *Binary) exprNode() {}
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// Call is a function application. Star marks COUNT(*).
type Call struct {
	Name string // upper-cased
	Args []Expr
	Star bool
}

func (c *Call) exprNode() {}
func (c *Call) String() string {
	if c.Star {
		return c.Name + "(*)"
	}
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Name + "(" + strings.Join(parts, ", ") + ")"
}

// In is "x [NOT] IN (a, b, ...)": true when x equals some list element.
type In struct {
	X    Expr
	List []Expr
	Not  bool
}

func (n *In) exprNode() {}
func (n *In) String() string {
	parts := make([]string, len(n.List))
	for i, e := range n.List {
		parts[i] = e.String()
	}
	return "(" + n.X.String() + notWord(n.Not) + "IN (" + strings.Join(parts, ", ") + "))"
}

// Like is "x [NOT] LIKE 'pattern'", the SQL pattern match: % matches any
// run of bytes, _ exactly one.
type Like struct {
	X       Expr
	Pattern string
	Not     bool
}

func (n *Like) exprNode() {}
func (n *Like) String() string {
	return "(" + n.X.String() + notWord(n.Not) + "LIKE " + Quote(n.Pattern) + ")"
}

// Between is "x [NOT] BETWEEN lo AND hi", inclusive at both ends.
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

func (n *Between) exprNode() {}
func (n *Between) String() string {
	return "(" + n.X.String() + notWord(n.Not) + "BETWEEN " + n.Lo.String() + " AND " + n.Hi.String() + ")"
}

func notWord(not bool) string {
	if not {
		return " NOT "
	}
	return " "
}

// SelectItem is one output attribute of a program.
type SelectItem struct {
	Expr Expr
	Name string // output attribute name
}

// Program is a parsed aggregation program.
type Program struct {
	Items []SelectItem
	Where Expr // nil when absent
	src   string
}

// Source returns the original program text.
func (p *Program) Source() string { return p.src }

// OutputNames returns the output attribute names in select-list order.
func (p *Program) OutputNames() []string {
	names := make([]string, len(p.Items))
	for i, it := range p.Items {
		names[i] = it.Name
	}
	return names
}

// String renders the program in normalized form.
func (p *Program) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range p.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.Expr.String())
		sb.WriteString(" AS ")
		sb.WriteString(it.Name)
	}
	if p.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(p.Where.String())
	}
	return sb.String()
}

// containsAggregate reports whether any Call to an aggregate function
// appears in the expression.
func containsAggregate(e Expr) bool {
	switch n := e.(type) {
	case *ColumnRef, *Literal:
		return false
	case *Unary:
		return containsAggregate(n.X)
	case *Binary:
		return containsAggregate(n.L) || containsAggregate(n.R)
	case *In:
		for _, e := range n.List {
			if containsAggregate(e) {
				return true
			}
		}
		return containsAggregate(n.X)
	case *Like:
		return containsAggregate(n.X)
	case *Between:
		return containsAggregate(n.X) || containsAggregate(n.Lo) || containsAggregate(n.Hi)
	case *Call:
		if _, ok := aggregates[n.Name]; ok {
			return true
		}
		for _, a := range n.Args {
			if containsAggregate(a) {
				return true
			}
		}
		return false
	default:
		return false
	}
}
