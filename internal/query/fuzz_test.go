package query

import (
	"testing"
	"time"

	"newswire/internal/sqlagg"
	"newswire/internal/value"
)

// FuzzParsePredicate asserts the parser never panics, and that anything
// it accepts can be evaluated and compiled without panicking. Each input
// is parsed twice: against the metadata schema, as subscriptions are,
// and untyped, as a publisher's wire-supplied dissemination predicate is
// before it is evaluated against zone-attribute rows.
func FuzzParsePredicate(f *testing.F) {
	seeds := []string{
		"subject = 'tech/linux'",
		"subject IN ('a', 'b') AND urgency <= 3",
		"publisher LIKE 'reu%' OR NOT (urgency BETWEEN 2 AND 5)",
		"published >= '2026-08-01' AND revision != 0",
		"subjects NOT IN ('x''y')",
		"TRUE AND (FALSE OR item_id = 'a')",
		"urgency NOT BETWEEN 1 AND",
		"((((", "subject =", "NOT NOT NOT urgency < 9",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	it := value.Map{
		"publisher": value.String("reuters"),
		"item_id":   value.String("a"),
		"revision":  value.Int(1),
		"urgency":   value.Int(3),
		"subjects":  value.Strings([]string{"tech/linux"}),
		"published": value.Time(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)),
	}
	zone := value.Map{
		"load":     value.Float(0.25),
		"nmembers": value.Int(12),
		"premium":  value.Bool(true),
		"region":   value.String("asia"),
		"reps":     value.Strings([]string{"10.0.0.1:7000", "10.0.0.2:7000"}),
		"subs":     value.Bytes([]byte{0x0f, 0xf0}),
	}
	f.Fuzz(func(t *testing.T, src string) {
		if p, err := sqlagg.ParsePredicate(src, nil); err == nil {
			_ = p.Eval(zone)
		}
		p, err := Parse(src)
		if err != nil {
			return
		}
		_ = p.Eval(it)
		_ = Compile(p)
	})
}

// FuzzPredicateRoundTrip asserts parse → String → parse is a fixpoint:
// the canonical rendering re-parses, and re-parsing it is idempotent.
func FuzzPredicateRoundTrip(f *testing.F) {
	seeds := []string{
		"subject = 'tech/linux'",
		"Subject != 'a''b'",
		"subject NOT LIKE '%x_' OR urgency <> 3",
		"(publisher IN ('a') AND TRUE) OR published < '2026-01-02T15:04:05.999999999Z'",
		"urgency NOT IN (0, 8) AND revision BETWEEN -2 AND 7",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("canonical form %q (of %q) does not re-parse: %v", p.String(), src, err)
		}
		if again.String() != p.String() {
			t.Fatalf("String not a fixpoint: %q re-parses to %q", p.String(), again.String())
		}
	})
}
