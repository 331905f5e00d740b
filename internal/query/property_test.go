package query

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"newswire/internal/bloom"
	"newswire/internal/news"
	"newswire/internal/sqlagg"
	"newswire/internal/value"
)

// probe is the reference forwarding test over a signature filter: each
// dimension passes on its wildcard key or a value key, and the decision
// is their conjunction. pubsub.ForwardFilter implements the same test
// over raw aggregated row bytes.
func probe(f *bloom.Filter, subjects []string, publisher string, urgency int) bool {
	subjHit := f.Test(WildSubject)
	for _, s := range subjects {
		if subjHit {
			break
		}
		subjHit = f.Test(SubjectKey(s))
	}
	return subjHit &&
		(f.Test(WildPublisher) || f.Test(PublisherKey(publisher))) &&
		(f.Test(WildUrgency) || f.Test(UrgencyKey(urgency)))
}

// TestSignatureNeverFalseNegative is the soundness gate: across many
// random predicates and random items, an item the exact evaluator
// matches must always pass the compiled signature's probe — under a
// deliberately small, collision-prone geometry, and also after merging
// all signatures into one aggregated filter (the zone OR-aggregation).
func TestSignatureNeverFalseNegative(t *testing.T) {
	const seeds = 20 // satellite spec: ≥16
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed*7919 + 13))
			g := newGen(rng)
			f := bloom.New(256, 3) // small and multi-hash: collisions likely
			merged := bloom.New(256, 3)

			preds := make([]*sqlagg.Predicate, 24)
			for i := range preds {
				src := g.predicate(3)
				p, err := Parse(src)
				if err != nil {
					t.Fatalf("generated predicate %q does not parse: %v", src, err)
				}
				// Canonical form must survive a round trip.
				again, err := Parse(p.String())
				if err != nil || again.String() != p.String() {
					t.Fatalf("round trip of %q → %q failed: %v", src, p.String(), err)
				}
				preds[i] = p
				pf := bloom.New(256, 3)
				Compile(p).Fill(pf)
				if err := merged.Merge(pf); err != nil {
					t.Fatal(err)
				}
			}

			for n := 0; n < 200; n++ {
				subjects, publisher, urgency, r := g.item()
				anyMatch := false
				for _, p := range preds {
					if !p.Eval(r) {
						continue
					}
					anyMatch = true
					f.Clear()
					Compile(p).Fill(f)
					if !probe(f, subjects, publisher, urgency) {
						t.Fatalf("false negative: predicate %q matches item subjects=%v publisher=%q urgency=%d but its signature rejects it",
							p.String(), subjects, publisher, urgency)
					}
				}
				if anyMatch && !probe(merged, subjects, publisher, urgency) {
					t.Fatalf("false negative after OR-aggregation: some predicate matches item subjects=%v publisher=%q urgency=%d but the merged filter rejects it",
						subjects, publisher, urgency)
				}
			}
		})
	}
}

// gen produces random predicates and random items over a shared small
// vocabulary, so matches are frequent enough to exercise the soundness
// property rather than vacuously passing on all-false predicates.
type gen struct {
	rng        *rand.Rand
	subjects   []string
	publishers []string
}

func newGen(rng *rand.Rand) *gen {
	return &gen{
		rng:        rng,
		subjects:   []string{"tech/linux", "tech/ai", "world/markets", "sci/space", "sport/football", "a'b"},
		publishers: []string{"reuters", "ap", "afp", "slashdot"},
	}
}

func (g *gen) item() (subjects []string, publisher string, urgency int, r value.Map) {
	n := 1 + g.rng.Intn(3)
	seen := map[string]bool{}
	for len(subjects) < n {
		s := g.subjects[g.rng.Intn(len(g.subjects))]
		if !seen[s] {
			seen[s] = true
			subjects = append(subjects, s)
		}
	}
	publisher = g.publishers[g.rng.Intn(len(g.publishers))]
	urgency = g.rng.Intn(news.UrgencyMax + 1)
	r = value.Map{
		"publisher": value.String(publisher),
		"item_id":   value.String(fmt.Sprintf("it-%d", g.rng.Intn(8))),
		"revision":  value.Int(int64(g.rng.Intn(3))),
		"urgency":   value.Int(int64(urgency)),
		"subjects":  value.Strings(subjects),
		"published": value.Time(time.Date(2026, 8, 1+g.rng.Intn(5), 0, 0, 0, 0, time.UTC)),
	}
	return subjects, publisher, urgency, r
}

func (g *gen) quoted(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// predicate renders a random predicate of bounded depth as source text,
// exercising every atom form the language has.
func (g *gen) predicate(depth int) string {
	if depth > 0 {
		switch g.rng.Intn(6) {
		case 0:
			return "(" + g.predicate(depth-1) + " AND " + g.predicate(depth-1) + ")"
		case 1:
			return "(" + g.predicate(depth-1) + " OR " + g.predicate(depth-1) + ")"
		case 2:
			return "NOT (" + g.predicate(depth-1) + ")"
		}
	}
	return g.atom()
}

func (g *gen) atom() string {
	not := ""
	if g.rng.Intn(3) == 0 {
		not = "NOT "
	}
	switch g.rng.Intn(10) {
	case 0:
		return "subject = " + g.quoted(g.subjects[g.rng.Intn(len(g.subjects))])
	case 1:
		return "subject != " + g.quoted(g.subjects[g.rng.Intn(len(g.subjects))])
	case 2:
		a := g.subjects[g.rng.Intn(len(g.subjects))]
		b := g.subjects[g.rng.Intn(len(g.subjects))]
		return fmt.Sprintf("subject %sIN (%s, %s)", not, g.quoted(a), g.quoted(b))
	case 3:
		s := g.subjects[g.rng.Intn(len(g.subjects))]
		if i := strings.IndexByte(s, '/'); i >= 0 && g.rng.Intn(2) == 0 {
			s = s[:i+1] + "%"
		}
		return fmt.Sprintf("subject %sLIKE %s", not, g.quoted(s))
	case 4:
		return "publisher = " + g.quoted(g.publishers[g.rng.Intn(len(g.publishers))])
	case 5:
		a := g.publishers[g.rng.Intn(len(g.publishers))]
		b := g.publishers[g.rng.Intn(len(g.publishers))]
		return fmt.Sprintf("publisher %sIN (%s, %s)", not, g.quoted(a), g.quoted(b))
	case 6:
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		return fmt.Sprintf("urgency %s %d", ops[g.rng.Intn(len(ops))], g.rng.Intn(news.UrgencyMax+1))
	case 7:
		lo := g.rng.Intn(news.UrgencyMax + 1)
		return fmt.Sprintf("urgency %sBETWEEN %d AND %d", not, lo, lo+g.rng.Intn(news.UrgencyMax+1-lo))
	case 8:
		return fmt.Sprintf("urgency %sIN (%d, %d)", not, g.rng.Intn(news.UrgencyMax+1), g.rng.Intn(news.UrgencyMax+1))
	default:
		day := 1 + g.rng.Intn(7)
		ops := []string{"<", "<=", ">", ">="}
		return fmt.Sprintf("published %s '2026-08-%02dT00:00:00Z'", ops[g.rng.Intn(len(ops))], day)
	}
}
