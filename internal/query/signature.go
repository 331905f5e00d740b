package query

import (
	"sort"
	"strconv"

	"newswire/internal/bloom"
	"newswire/internal/news"
	"newswire/internal/sqlagg"
	"newswire/internal/value"
)

// Routing dimensions. A compiled signature covers three dimensions of an
// item — its subjects, its publisher, and its urgency — each hashed into
// the shared Bloom bit space under a namespaced key. A dimension the
// predicate does not constrain sets its wildcard key instead, so the
// forwarding test ("some subject key present OR the subject wildcard,
// AND the publisher key OR its wildcard, AND the urgency key OR its
// wildcard") stays a pure conjunction over independently-sound covers.

// Wildcard keys, one per dimension. "*" cannot start a subject,
// publisher, or urgency key, so wildcards never collide with real values
// at the key level (Bloom collisions remain possible and are sound:
// they only widen the cover).
const (
	WildSubject   = "*s"
	WildPublisher = "*p"
	WildUrgency   = "*u"
)

// SubjectKey is the Bloom key of one subject value.
func SubjectKey(subject string) string { return "s:" + subject }

// PublisherKey is the Bloom key of one publisher value.
func PublisherKey(publisher string) string { return "p:" + publisher }

// UrgencyKey is the Bloom key of one urgency value.
func UrgencyKey(urgency int) string { return "u:" + strconv.Itoa(urgency) }

// strCover is a string dimension's cover: Top (unconstrained) or a
// finite set of values that can satisfy the predicate.
type strCover struct {
	top  bool
	vals []string // sorted, unique; empty non-top = dimension unsatisfiable
}

func topStr() strCover           { return strCover{top: true} }
func oneStr(v string) strCover   { return strCover{vals: []string{v}} }
func setStr(v []string) strCover { return strCover{vals: sortUnique(v)} }

func sortUnique(v []string) []string {
	out := append([]string(nil), v...)
	sort.Strings(out)
	n := 0
	for i, s := range out {
		if i == 0 || s != out[n-1] {
			out[n] = s
			n++
		}
	}
	return out[:n]
}

// union is the OR rule: any value either side admits.
func (a strCover) union(b strCover) strCover {
	if a.top || b.top {
		return topStr()
	}
	return setStr(append(append([]string(nil), a.vals...), b.vals...))
}

// intersect is the AND rule for single-valued dimensions (publisher):
// the row's one value must satisfy both sides, so it lies in both covers.
func (a strCover) intersect(b strCover) strCover {
	if a.top {
		return b
	}
	if b.top {
		return a
	}
	var out []string
	i, j := 0, 0
	for i < len(a.vals) && j < len(b.vals) {
		switch {
		case a.vals[i] == b.vals[j]:
			out = append(out, a.vals[i])
			i++
			j++
		case a.vals[i] < b.vals[j]:
			i++
		default:
			j++
		}
	}
	return strCover{vals: out}
}

// tighter is the AND rule for the multi-valued subjects dimension.
// Intersection would be unsound there: subjects = 'a' AND subjects = 'b'
// is satisfied by an item carrying both, yet {a} ∩ {b} = ∅ would never
// forward it. Each side's cover alone is sound (its own constraint holds
// under the conjunction, so its witness subject is in its cover), so
// take whichever non-top side is smaller.
func (a strCover) tighter(b strCover) strCover {
	switch {
	case a.top:
		return b
	case b.top:
		return a
	case len(b.vals) < len(a.vals):
		return b
	default:
		return a
	}
}

// urgMask is the urgency dimension's cover as a bitmask over the finite
// domain 0..news.UrgencyMax. The domain being finite means every urgency
// atom — negations and ranges included — has an exact mask.
type urgMask uint16

const urgAll = urgMask(1<<(news.UrgencyMax+1)) - 1

func urgRange(lo, hi int64) urgMask {
	if lo < 0 {
		lo = 0
	}
	if hi > news.UrgencyMax {
		hi = news.UrgencyMax
	}
	var m urgMask
	for u := lo; u <= hi; u++ {
		m |= 1 << uint(u)
	}
	return m
}

// Cover is a predicate's per-dimension routing cover. Invariant (the
// soundness property the property test enforces): if the predicate
// matches an item, then some item subject is in Subs (or Subs is top),
// the item's publisher is in Pubs (or top), and the item's urgency bit
// is in Urg.
type Cover struct {
	Subs strCover
	Pubs strCover
	Urg  urgMask
}

func topCover() Cover { return Cover{Subs: topStr(), Pubs: topStr(), Urg: urgAll} }

// cover computes the routing cover of a predicate tree that Parse
// type-checked: boolean combinations of field-vs-literal atoms, with
// subject equality already rewritten to IN. A node of any other shape
// widens to top, which keeps the cover sound.
func cover(e sqlagg.Expr) Cover {
	c := topCover()
	switch n := e.(type) {
	case *sqlagg.Literal:
		// FALSE matches nothing; an all-empty cover never forwards,
		// which is vacuously sound.
		if !n.Val.Truthy() {
			return Cover{}
		}

	case *sqlagg.Unary:
		// NOT widens to top: the complement of a finite cover is not
		// finitely coverable for string dimensions. Urgency negations
		// written at the atom level (urgency != 3, NOT IN, NOT BETWEEN)
		// keep exact masks below.

	case *sqlagg.Binary:
		switch n.Op {
		case "OR":
			l, r := cover(n.L), cover(n.R)
			return Cover{Subs: l.Subs.union(r.Subs), Pubs: l.Pubs.union(r.Pubs), Urg: l.Urg | r.Urg}
		case "AND":
			l, r := cover(n.L), cover(n.R)
			return Cover{Subs: l.Subs.tighter(r.Subs), Pubs: l.Pubs.intersect(r.Pubs), Urg: l.Urg & r.Urg}
		}
		lit := literal(n.R)
		switch field(n.L) {
		case "publisher":
			if s, ok := lit.AsString(); ok && n.Op == "=" {
				c.Pubs = oneStr(s)
			}
		case "urgency":
			u, ok := lit.AsInt()
			if !ok {
				break
			}
			switch n.Op {
			case "=":
				c.Urg = urgRange(u, u)
			case "!=":
				c.Urg = urgAll &^ urgRange(u, u)
			case "<":
				c.Urg = urgRange(0, u-1)
			case "<=":
				c.Urg = urgRange(0, u)
			case ">":
				c.Urg = urgRange(u+1, news.UrgencyMax)
			case ">=":
				c.Urg = urgRange(u, news.UrgencyMax)
			}
		}

	case *sqlagg.In:
		switch f := field(n.X); f {
		case "subjects", "publisher":
			if n.Not {
				break
			}
			vals := make([]string, 0, len(n.List))
			for _, el := range n.List {
				s, ok := literal(el).AsString()
				if !ok {
					return c
				}
				vals = append(vals, s)
			}
			if f == "subjects" {
				c.Subs = setStr(vals)
			} else {
				c.Pubs = setStr(vals)
			}
		case "urgency":
			var m urgMask
			for _, el := range n.List {
				u, ok := literal(el).AsInt()
				if !ok {
					return c
				}
				m |= urgRange(u, u)
			}
			if n.Not {
				m = urgAll &^ m
			}
			c.Urg = m
		}

	case *sqlagg.Like:
		if n.Not || hasWildcard(n.Pattern) {
			break
		}
		// A wildcard-free pattern is an equality test.
		switch field(n.X) {
		case "subjects":
			c.Subs = oneStr(n.Pattern)
		case "publisher":
			c.Pubs = oneStr(n.Pattern)
		}

	case *sqlagg.Between:
		lo, ok1 := literal(n.Lo).AsInt()
		hi, ok2 := literal(n.Hi).AsInt()
		if field(n.X) == "urgency" && ok1 && ok2 {
			m := urgRange(lo, hi)
			if n.Not {
				m = urgAll &^ m
			}
			c.Urg = m
		}
	}
	return c
}

// field is the column name e references, or "" for any other node.
func field(e sqlagg.Expr) string {
	if col, ok := e.(*sqlagg.ColumnRef); ok {
		return col.Name
	}
	return ""
}

// literal is the constant e holds, or the invalid value for any other
// node.
func literal(e sqlagg.Expr) value.Value {
	if lit, ok := e.(*sqlagg.Literal); ok {
		return lit.Val
	}
	return value.Invalid()
}

func hasWildcard(pattern string) bool {
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == '%' || pattern[i] == '_' {
			return true
		}
	}
	return false
}

// Signature is the compiled coarse routing form of a predicate: the
// values (or wildcards) whose Bloom keys the leaf row advertises.
type Signature struct {
	// AnySubject set means the subject dimension is unconstrained;
	// otherwise Subjects lists every subject value that can satisfy the
	// predicate (sorted, possibly empty = never forwards).
	AnySubject bool
	Subjects   []string
	// AnyPublisher/Publishers: same for the publisher dimension.
	AnyPublisher bool
	Publishers   []string
	// AnyUrgency/Urgencies: same for the urgency dimension (values within
	// 0..news.UrgencyMax).
	AnyUrgency bool
	Urgencies  []int
}

// Compile lowers a predicate from Parse to its routing signature. The
// signature is sound — it admits every item the exact evaluator can
// match — and conservative: ranges over urgency enumerate the finite
// domain exactly, while negations and wildcard patterns over string
// dimensions widen to the dimension wildcard.
func Compile(p *sqlagg.Predicate) Signature {
	c := cover(p.Expr())
	sig := Signature{
		AnySubject:   c.Subs.top,
		AnyPublisher: c.Pubs.top,
	}
	if !c.Subs.top {
		sig.Subjects = append([]string(nil), c.Subs.vals...)
	}
	if !c.Pubs.top {
		sig.Publishers = append([]string(nil), c.Pubs.vals...)
	}
	if c.Urg == urgAll {
		sig.AnyUrgency = true
	} else {
		for u := 0; u <= news.UrgencyMax; u++ {
			if c.Urg&(1<<uint(u)) != 0 {
				sig.Urgencies = append(sig.Urgencies, u)
			}
		}
	}
	return sig
}

// SubjectsSignature is the signature of a plain subject-set subscription
// (Subscribe without a predicate): those subjects, any publisher, any
// urgency.
func SubjectsSignature(subjects []string) Signature {
	return Signature{
		Subjects:     sortUnique(subjects),
		AnyPublisher: true,
		AnyUrgency:   true,
	}
}

// Fill adds the signature's keys to a Bloom filter: each dimension
// contributes its value keys, or its wildcard key when unconstrained.
func (s Signature) Fill(f *bloom.Filter) {
	if s.AnySubject {
		f.Add(WildSubject)
	}
	for _, subj := range s.Subjects {
		f.Add(SubjectKey(subj))
	}
	if s.AnyPublisher {
		f.Add(WildPublisher)
	}
	for _, pub := range s.Publishers {
		f.Add(PublisherKey(pub))
	}
	if s.AnyUrgency {
		f.Add(WildUrgency)
	}
	for _, u := range s.Urgencies {
		f.Add(UrgencyKey(u))
	}
}
