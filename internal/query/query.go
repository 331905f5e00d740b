// Package query is NewsWire's typed subscription predicate language over
// NITF-style news metadata — the "more complex selection criteria based
// on the meta-data associated with the news-items, in the form of an SQL
// query" of paper §7–8.
//
// A predicate is a sqlagg predicate checked against the metadata schema
// of pubsub.ItemMetadataRow (publisher, item_id, revision, urgency,
// subjects, published): comparisons, IN lists, LIKE patterns, BETWEEN
// ranges, and AND/OR/NOT, over those fields only. sqlagg parses and
// evaluates it; this package owns the schema and the routing compiler.
//
// Each predicate supports two evaluations:
//
//   - Eval (sqlagg): the exact evaluator, run at the leaf in place of the
//     plain subject bit test. Multi-valued fields (subjects) match
//     existentially: subjects = 'x' is "some subject equals x", and
//     subjects != 'x' is its negation ("no subject equals x").
//   - Compile: a coarse routing Signature — per-dimension covers over the
//     subject, publisher, and urgency dimensions, hashed into one Bloom
//     filter for OR-aggregation up the zone hierarchy. The signature is
//     sound: it can forward too much, never too little (see signature.go).
package query

import "newswire/internal/sqlagg"

// schema maps every accepted field spelling to its canonical field. The
// set mirrors news.MetadataFields; "subject" is accepted as an alias for
// "subjects" since single-subject predicates read naturally with it.
var schema = sqlagg.Schema{
	"publisher": {Name: "publisher", Type: sqlagg.TypeString},
	"item_id":   {Name: "item_id", Type: sqlagg.TypeString},
	"revision":  {Name: "revision", Type: sqlagg.TypeInt},
	"urgency":   {Name: "urgency", Type: sqlagg.TypeInt},
	"subjects":  {Name: "subjects", Type: sqlagg.TypeStrings},
	"subject":   {Name: "subjects", Type: sqlagg.TypeStrings},
	"published": {Name: "published", Type: sqlagg.TypeTime},
}

// Fields returns the canonical queryable field names, sorted. It must
// stay in lockstep with pubsub.ItemMetadataRow; a test pins it to
// news.MetadataFields.
func Fields() []string { return schema.Names() }

// Parse parses and type-checks one predicate against the metadata
// schema. Its String form is canonical: parsing it again yields an
// identical predicate (FuzzPredicateRoundTrip pins this).
func Parse(src string) (*sqlagg.Predicate, error) { return sqlagg.ParsePredicate(src, schema) }
