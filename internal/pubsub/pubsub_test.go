package pubsub

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/bloom"
	"newswire/internal/news"
	"newswire/internal/query"
	"newswire/internal/sim"
	"newswire/internal/value"
	"newswire/internal/wire"
)

func testAgent(t *testing.T) *astrolabe.Agent {
	t.Helper()
	eng := sim.NewEngine(1)
	net := sim.NewNetwork(eng, sim.LinkModel{})
	ep := net.Attach("n0", func(*wire.Message) {})
	a, err := astrolabe.NewAgent(astrolabe.Config{
		Name: "node-0", ZonePath: "/z", Transport: ep,
		Clock: eng.Clock(), Rand: rand.New(rand.NewSource(1)),
		PrefixRules: []astrolabe.PrefixRule{
			{Prefix: AttrSubPrefix, Op: astrolabe.PrefixBoolOr},
			{Prefix: AttrPubPrefix, Op: astrolabe.PrefixBitOr},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testItem() *news.Item {
	return &news.Item{
		Publisher: "slashdot",
		ID:        "story-9",
		Revision:  0,
		Headline:  "Linux 2.6 roadmap",
		Body:      "kernel news",
		Subjects:  []string{"tech/linux"},
		Urgency:   5,
		Published: time.Unix(1017619200, 0).UTC(),
	}
}

func TestNewSubscriberValidation(t *testing.T) {
	if _, err := NewSubscriber(Config{}); err == nil {
		t.Error("nil agent accepted")
	}
	a := testAgent(t)
	if _, err := NewSubscriber(Config{Agent: a, Mode: Mode(9)}); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := NewSubscriber(Config{Agent: a, Geometry: Geometry{Bits: 4, Hashes: 1}}); err == nil {
		t.Error("tiny geometry accepted")
	}
	s, err := NewSubscriber(Config{Agent: a})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode() != ModeBloom {
		t.Errorf("default mode = %v", s.Mode())
	}
}

func TestModeString(t *testing.T) {
	if ModeBloom.String() != "bloom" || ModeAttributes.String() != "attributes" ||
		ModeCategoryMask.String() != "category-mask" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() != "mode(9)" {
		t.Error("unknown mode name wrong")
	}
}

func TestSubscribeAdvertisesBloom(t *testing.T) {
	a := testAgent(t)
	s, err := NewSubscriber(Config{Agent: a})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Subscribe("tech/linux", "world/asia"); err != nil {
		t.Fatal(err)
	}

	subsAttr := a.Attr(astrolabe.AttrSubs)
	raw, ok := subsAttr.RawBytes()
	if !ok {
		t.Fatal("subs attribute not advertised")
	}
	f, err := bloom.FromBytes(raw, DefaultGeometry.Bits, DefaultGeometry.Hashes)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Test("tech/linux") || !f.Test("world/asia") {
		t.Fatal("advertised filter missing subscriptions")
	}

	subjects := s.Subjects()
	if len(subjects) != 2 || subjects[0] != "tech/linux" || subjects[1] != "world/asia" {
		t.Fatalf("Subjects() = %v", subjects)
	}
}

func TestUnsubscribeRebuildsFilter(t *testing.T) {
	a := testAgent(t)
	s, _ := NewSubscriber(Config{Agent: a})
	s.Subscribe("tech/linux", "world/asia")
	s.Unsubscribe("tech/linux")

	raw, _ := a.Attr(astrolabe.AttrSubs).RawBytes()
	f, _ := bloom.FromBytes(raw, DefaultGeometry.Bits, DefaultGeometry.Hashes)
	if f.Test("tech/linux") {
		t.Fatal("unsubscribed subject still in filter")
	}
	if !f.Test("world/asia") {
		t.Fatal("remaining subject lost")
	}
}

func TestSubscribeEmptySubjectRejected(t *testing.T) {
	a := testAgent(t)
	s, _ := NewSubscriber(Config{Agent: a})
	if err := s.Subscribe(""); err == nil {
		t.Fatal("empty subject accepted")
	}
}

func TestSubscribeAdvertisesAttributes(t *testing.T) {
	a := testAgent(t)
	s, _ := NewSubscriber(Config{Agent: a, Mode: ModeAttributes})
	s.Subscribe("tech/linux")
	if v, ok := a.Attr(AttrSubPrefix + "tech/linux").AsBool(); !ok || !v {
		t.Fatal("sub_ attribute not advertised")
	}
	s.Unsubscribe("tech/linux")
	if a.Attr(AttrSubPrefix + "tech/linux").IsValid() {
		t.Fatal("sub_ attribute not cleared on unsubscribe")
	}
}

func TestSubscribePublisherMask(t *testing.T) {
	a := testAgent(t)
	s, _ := NewSubscriber(Config{Agent: a, Mode: ModeCategoryMask})
	if err := s.SubscribePublisher("slashdot", "tech/linux"); err != nil {
		t.Fatal(err)
	}
	mask, ok := a.Attr(AttrPubPrefix + "slashdot").RawBytes()
	if !ok {
		t.Fatal("pub_ mask not advertised")
	}
	idx := -1
	for i, c := range news.StandardSubjects {
		if c == "tech/linux" {
			idx = i
		}
	}
	if mask[idx/8]&(1<<(idx%8)) == 0 {
		t.Fatal("category bit not set in mask")
	}
	if err := s.SubscribePublisher("slashdot", "not/a/category"); err == nil {
		t.Fatal("unknown category accepted")
	}
	// SubscribePublisher outside mask mode fails.
	sb, _ := NewSubscriber(Config{Agent: a})
	if err := sb.SubscribePublisher("x", "tech/linux"); err == nil {
		t.Fatal("SubscribePublisher in bloom mode accepted")
	}
	// Subscribe with an out-of-vocabulary subject fails in mask mode.
	if err := s.Subscribe("nonexistent/cat"); err == nil {
		t.Fatal("out-of-vocabulary Subscribe accepted in mask mode")
	}
}

func TestEncodeDecodeItemBloom(t *testing.T) {
	it := testItem()
	env, err := EncodeItem(it, ModeBloom, DefaultGeometry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.SubjectBits) != DefaultGeometry.Hashes {
		t.Fatalf("SubjectBits = %v, want %d positions", env.SubjectBits, DefaultGeometry.Hashes)
	}
	want := bloom.PositionsFor("tech/linux", DefaultGeometry.Bits, DefaultGeometry.Hashes)
	if env.SubjectBits[0] != want[0] {
		t.Fatal("bit positions disagree with bloom package")
	}
	if env.Urgency != 5 {
		t.Fatalf("urgency not mirrored: %d", env.Urgency)
	}
	got, err := DecodeItem(&env)
	if err != nil {
		t.Fatal(err)
	}
	if got.Headline != it.Headline {
		t.Fatal("payload content lost")
	}
}

func TestDecodeItemRejectsMismatchedEnvelope(t *testing.T) {
	it := testItem()
	env, _ := EncodeItem(it, ModeBloom, DefaultGeometry, nil)

	bad := env
	bad.ItemID = "other"
	if _, err := DecodeItem(&bad); err == nil {
		t.Error("identity mismatch accepted")
	}
	bad = env
	bad.Subjects = []string{"sports/soccer"}
	if _, err := DecodeItem(&bad); err == nil {
		t.Error("subject mismatch accepted")
	}
	bad = env
	bad.Subjects = append([]string{}, env.Subjects...)
	bad.Subjects = append(bad.Subjects, "extra/subject")
	if _, err := DecodeItem(&bad); err == nil {
		t.Error("extra subject accepted")
	}
}

func TestEncodeItemMaskMode(t *testing.T) {
	it := testItem()
	env, err := EncodeItem(it, ModeCategoryMask, DefaultGeometry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.SubjectBits) != 1 {
		t.Fatalf("SubjectBits = %v", env.SubjectBits)
	}
	it2 := testItem()
	it2.Subjects = []string{"unknown/category"}
	if _, err := EncodeItem(it2, ModeCategoryMask, DefaultGeometry, nil); err == nil {
		t.Fatal("out-of-vocabulary subject accepted")
	}
}

func rowWithSubs(filter *bloom.Filter) astrolabe.Row {
	return astrolabe.Row{
		Name:  "child",
		Attrs: value.Map{astrolabe.AttrSubs: value.Bytes(filter.Bytes())},
	}
}

func TestForwardFilterBloom(t *testing.T) {
	geo := DefaultGeometry
	filter := ForwardFilter(ModeBloom, geo, nil)

	f := bloom.New(geo.Bits, geo.Hashes)
	f.Add("tech/linux")
	row := rowWithSubs(f)

	env, _ := EncodeItem(testItem(), ModeBloom, geo, nil)
	if !filter("/", row, &env) {
		t.Fatal("matching subscription not forwarded")
	}

	other := testItem()
	other.Subjects = []string{"sports/soccer"}
	envOther, _ := EncodeItem(other, ModeBloom, geo, nil)
	if filter("/", row, &envOther) {
		t.Fatal("non-matching subject forwarded (and this subject does not collide)")
	}

	// Row with no subs attribute: prune.
	if filter("/", astrolabe.Row{Attrs: value.Map{}}, &env) {
		t.Fatal("row without subs forwarded")
	}
}

func TestForwardFilterBloomMultiSubjectAnyMatch(t *testing.T) {
	geo := Geometry{Bits: 1024, Hashes: 4}
	filter := ForwardFilter(ModeBloom, geo, nil)
	f := bloom.New(geo.Bits, geo.Hashes)
	f.Add("world/asia")
	row := rowWithSubs(f)

	it := testItem()
	it.Subjects = []string{"tech/linux", "world/asia"}
	env, _ := EncodeItem(it, ModeBloom, geo, nil)
	if len(env.SubjectBits) != 8 {
		t.Fatalf("expected 2 subjects × 4 hashes positions, got %d", len(env.SubjectBits))
	}
	if !filter("/", row, &env) {
		t.Fatal("any-subject match failed")
	}
}

func TestForwardFilterAttributes(t *testing.T) {
	filter := ForwardFilter(ModeAttributes, Geometry{}, nil)
	row := astrolabe.Row{Attrs: value.Map{AttrSubPrefix + "tech/linux": value.Bool(true)}}
	env, _ := EncodeItem(testItem(), ModeAttributes, Geometry{}, nil)
	if !filter("/", row, &env) {
		t.Fatal("attribute match failed")
	}
	empty := astrolabe.Row{Attrs: value.Map{}}
	if filter("/", empty, &env) {
		t.Fatal("row without sub_ attr forwarded")
	}
}

func TestForwardFilterCategoryMask(t *testing.T) {
	filter := ForwardFilter(ModeCategoryMask, Geometry{}, nil)
	idx := 0
	for i, c := range news.StandardSubjects {
		if c == "tech/linux" {
			idx = i
		}
	}
	mask := make([]byte, (len(news.StandardSubjects)+7)/8)
	mask[idx/8] |= 1 << (idx % 8)
	row := astrolabe.Row{Attrs: value.Map{AttrPubPrefix + "slashdot": value.Bytes(mask)}}

	env, _ := EncodeItem(testItem(), ModeCategoryMask, Geometry{}, nil)
	if !filter("/", row, &env) {
		t.Fatal("mask match failed")
	}
	// Same mask under a different publisher attribute: prune.
	otherPub := astrolabe.Row{Attrs: value.Map{AttrPubPrefix + "wired": value.Bytes(mask)}}
	if filter("/", otherPub, &env) {
		t.Fatal("mask of different publisher matched")
	}
}

func TestShouldDeliverExactMatch(t *testing.T) {
	a := testAgent(t)
	s, _ := NewSubscriber(Config{Agent: a})
	s.Subscribe("tech/linux")

	env, _ := EncodeItem(testItem(), ModeBloom, DefaultGeometry, nil)
	if !s.ShouldDeliver(&env) {
		t.Fatal("subscribed item rejected")
	}

	other := testItem()
	other.Subjects = []string{"sports/soccer"}
	envOther, _ := EncodeItem(other, ModeBloom, DefaultGeometry, nil)
	if s.ShouldDeliver(&envOther) {
		t.Fatal("unsubscribed item delivered — false positive not filtered")
	}
}

func TestShouldDeliverPredicate(t *testing.T) {
	a := testAgent(t)
	s, _ := NewSubscriber(Config{Agent: a})
	s.Subscribe("tech/linux")
	if err := s.SetPredicate("urgency <= 5 AND publisher = 'slashdot'"); err != nil {
		t.Fatal(err)
	}

	env, _ := EncodeItem(testItem(), ModeBloom, DefaultGeometry, nil)
	if !s.ShouldDeliver(&env) {
		t.Fatal("predicate-satisfying item rejected")
	}

	urgent := testItem()
	urgent.Urgency = 8
	envU, _ := EncodeItem(urgent, ModeBloom, DefaultGeometry, nil)
	if s.ShouldDeliver(&envU) {
		t.Fatal("predicate-failing item delivered")
	}

	if err := s.SetPredicate("bad syntax ("); err == nil {
		t.Fatal("bad predicate accepted")
	}
	// A misspelled field would silently drop every item at the leaf.
	if err := s.SetPredicate("urgncy <= 5"); err == nil {
		t.Fatal("predicate over an unknown field accepted")
	}

	// Subject equality is "some subject equals", as in SubscribeQuery.
	if err := s.SetPredicate("subjects = 'tech/linux'"); err != nil {
		t.Fatal(err)
	}
	if !s.ShouldDeliver(&envU) {
		t.Fatal("subjects = 'tech/linux' rejected an item carrying tech/linux")
	}
	if err := s.SetPredicate(""); err != nil {
		t.Fatal("clearing predicate failed")
	}
	if !s.ShouldDeliver(&envU) {
		t.Fatal("cleared predicate still filtering")
	}
}

func TestShouldDeliverMaskModePerPublisher(t *testing.T) {
	a := testAgent(t)
	s, _ := NewSubscriber(Config{Agent: a, Mode: ModeCategoryMask})
	s.SubscribePublisher("slashdot", "tech/linux")

	env, _ := EncodeItem(testItem(), ModeCategoryMask, Geometry{}, nil)
	if !s.ShouldDeliver(&env) {
		t.Fatal("subscribed publisher+category rejected")
	}

	// Same category from a different publisher must NOT deliver.
	wired := testItem()
	wired.Publisher = "wired"
	envW, _ := EncodeItem(wired, ModeCategoryMask, Geometry{}, nil)
	if s.ShouldDeliver(&envW) {
		t.Fatal("per-publisher interest leaked to another publisher")
	}
}

func TestItemMetadataRow(t *testing.T) {
	env, _ := EncodeItem(testItem(), ModeBloom, DefaultGeometry, nil)
	row := ItemMetadataRow(&env)
	if p, _ := row["publisher"].AsString(); p != "slashdot" {
		t.Errorf("publisher = %v", row["publisher"])
	}
	if u, _ := row["urgency"].AsInt(); u != 5 {
		t.Errorf("urgency = %v", row["urgency"])
	}
	if subs, _ := row["subjects"].AsStrings(); len(subs) != 1 {
		t.Errorf("subjects = %v", row["subjects"])
	}
}

func predicateAgent(t *testing.T) *astrolabe.Agent {
	t.Helper()
	eng := sim.NewEngine(1)
	net := sim.NewNetwork(eng, sim.LinkModel{})
	ep := net.Attach("n0", func(*wire.Message) {})
	a, err := astrolabe.NewAgent(astrolabe.Config{
		Name: "node-0", ZonePath: "/z", Transport: ep,
		Clock: eng.Clock(), Rand: rand.New(rand.NewSource(1)),
		PrefixRules: []astrolabe.PrefixRule{
			{Prefix: AttrSubGroups, Op: astrolabe.PrefixSubgroup},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigErrorTyped(t *testing.T) {
	a := testAgent(t)
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"unknown mode", Config{Agent: a, Mode: Mode(9)}, "Mode"},
		{"tiny bits", Config{Agent: a, Geometry: Geometry{Bits: 4, Hashes: 1}}, "Geometry"},
		{"huge bits", Config{Agent: a, Geometry: Geometry{Bits: MaxGeometryBits + 1, Hashes: 1}}, "Geometry"},
		{"zero hashes", Config{Agent: a, Geometry: Geometry{Bits: 1024, Hashes: 0}}, "Geometry"},
		{"many hashes", Config{Agent: a, Geometry: Geometry{Bits: 1024, Hashes: MaxGeometryHash + 1}}, "Geometry"},
		{"negative K", Config{Agent: a, Mode: ModePredicate, SubgroupK: -1}, "SubgroupK"},
		{"huge K", Config{Agent: a, Mode: ModePredicate, SubgroupK: MaxSubgroupK + 1}, "SubgroupK"},
	}
	for _, tc := range cases {
		_, err := NewSubscriber(tc.cfg)
		var cerr *ConfigError
		if !errors.As(err, &cerr) {
			t.Errorf("%s: err = %v, want *ConfigError", tc.name, err)
			continue
		}
		if cerr.Field != tc.field {
			t.Errorf("%s: Field = %q, want %q", tc.name, cerr.Field, tc.field)
		}
	}
	// Defaults are valid and not ConfigErrors.
	if _, err := NewSubscriber(Config{Agent: a, Mode: ModePredicate}); err != nil {
		t.Fatalf("default predicate config rejected: %v", err)
	}
	var cerr *ConfigError
	if _, err := NewSubscriber(Config{}); !errors.As(err, &cerr) && err == nil {
		t.Fatal("nil agent accepted")
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"", ModeBloom}, {"bloom", ModeBloom}, {"attributes", ModeAttributes},
		{"category-mask", ModeCategoryMask}, {"predicate", ModePredicate}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("round trip %q -> %q", tc.in, got)
		}
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Error("unknown mode name accepted")
	}
}

func TestSubscribeQueryAdvertisesSignature(t *testing.T) {
	a := predicateAgent(t)
	s, err := NewSubscriber(Config{Agent: a, Mode: ModePredicate, Geometry: Geometry{Bits: 1024, Hashes: 4}})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := s.SubscribeQuery("urgency >= 6 and subjects = 'tech/linux'")
	if err != nil {
		t.Fatal(err)
	}
	if qs := s.Queries(); len(qs) != 1 || qs[0] != canon {
		t.Fatalf("Queries() = %v, want [%s]", qs, canon)
	}

	// The compiled filter travels only inside the subgroup signature set;
	// a raw AttrSubs copy would double the summary's gossip bytes.
	if _, ok := a.Attr(astrolabe.AttrSubs).RawBytes(); ok {
		t.Fatal("predicate leaf advertised a redundant raw subs filter")
	}
	setEnc, ok := a.Attr(AttrSubGroups).RawBytes()
	if !ok {
		t.Fatal("subgroup set not advertised")
	}
	_, setFilters, ok := bloom.DecodeSignatureSet(setEnc)
	if !ok || len(setFilters) != 1 {
		t.Fatalf("subgroup set: n=%d ok=%v", len(setFilters), ok)
	}
	raw := setFilters[0]
	f, err := bloom.FromBytes(raw, 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		query.SubjectKey("tech/linux"), query.WildPublisher,
		query.UrgencyKey(6), query.UrgencyKey(7), query.UrgencyKey(8),
	} {
		if !f.Test(key) {
			t.Errorf("advertised filter missing %q", key)
		}
	}
	if f.Test(query.UrgencyKey(5)) || f.Test(query.WildSubject) || f.Test(query.WildUrgency) {
		t.Error("advertised filter carries keys the predicate excludes")
	}

	enc, ok := a.Attr(AttrSubGroups).RawBytes()
	if !ok {
		t.Fatal("subgroup set not advertised")
	}
	k, filters, ok := bloom.DecodeSignatureSet(enc)
	if !ok || k != DefaultSubgroupK || len(filters) != 1 {
		t.Fatalf("subgroup set: k=%d n=%d ok=%v", k, len(filters), ok)
	}
	if !bytes.Equal(filters[0], raw) {
		t.Fatal("leaf subgroup filter differs from the subs filter")
	}

	if err := s.UnsubscribeQuery("urgency>=6 AND subjects='tech/linux'"); err != nil {
		t.Fatal(err)
	}
	if qs := s.Queries(); len(qs) != 0 {
		t.Fatalf("Queries() after unsubscribe = %v", qs)
	}
}

func TestSubscribeQueryRequiresPredicateMode(t *testing.T) {
	a := testAgent(t)
	s, _ := NewSubscriber(Config{Agent: a})
	if _, err := s.SubscribeQuery("urgency = 1"); err == nil {
		t.Fatal("SubscribeQuery accepted outside ModePredicate")
	}
	ap := predicateAgent(t)
	sp, _ := NewSubscriber(Config{Agent: ap, Mode: ModePredicate})
	if _, err := sp.SubscribeQuery("urgency = "); err == nil {
		t.Fatal("malformed query accepted")
	}
}

func TestShouldDeliverQueryAndCounters(t *testing.T) {
	a := predicateAgent(t)
	var ctr Counters
	s, err := NewSubscriber(Config{Agent: a, Mode: ModePredicate, Counters: &ctr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubscribeQuery("publisher = 'slashdot' AND urgency >= 5"); err != nil {
		t.Fatal(err)
	}

	env, _ := EncodeItem(testItem(), ModePredicate, DefaultGeometry, nil)
	if !s.ShouldDeliver(&env) {
		t.Fatal("query-matching item rejected")
	}
	calm := testItem()
	calm.Urgency = 1
	envCalm, _ := EncodeItem(calm, ModePredicate, DefaultGeometry, nil)
	if s.ShouldDeliver(&envCalm) {
		t.Fatal("query-failing item delivered")
	}
	snap := ctr.Snapshot()
	if snap.ExactMatches != 1 || snap.FalsePositiveDrops != 1 {
		t.Fatalf("counters = %+v, want 1 match / 1 drop", snap)
	}

	// Plain subject subscriptions still work alongside queries.
	if err := s.Subscribe("sports/soccer"); err != nil {
		t.Fatal(err)
	}
	soccer := testItem()
	soccer.Subjects = []string{"sports/soccer"}
	soccer.Urgency = 1
	envSoccer, _ := EncodeItem(soccer, ModePredicate, DefaultGeometry, nil)
	if !s.ShouldDeliver(&envSoccer) {
		t.Fatal("plain subject subscription lost in predicate mode")
	}
}

func TestEncodeItemPredicateLayout(t *testing.T) {
	it := testItem()
	it.Subjects = []string{"tech/linux", "world/asia"}
	geo := Geometry{Bits: 1024, Hashes: 4}
	env, err := EncodeItem(it, ModePredicate, geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (2 + 2) * geo.Hashes; len(env.SubjectBits) != want {
		t.Fatalf("SubjectBits len = %d, want %d", len(env.SubjectBits), want)
	}
	wantSub := bloom.PositionsFor(query.SubjectKey("tech/linux"), geo.Bits, geo.Hashes)
	for i, p := range wantSub {
		if env.SubjectBits[i] != p {
			t.Fatal("subject group positions disagree with signature keys")
		}
	}
	wantUrg := bloom.PositionsFor(query.UrgencyKey(5), geo.Bits, geo.Hashes)
	off := len(env.SubjectBits) - geo.Hashes
	for i, p := range wantUrg {
		if env.SubjectBits[off+i] != p {
			t.Fatal("urgency group positions disagree with signature keys")
		}
	}
}

func TestForwardFilterPredicatePrecision(t *testing.T) {
	geo := Geometry{Bits: 1024, Hashes: 4}
	a := predicateAgent(t)
	var ctr Counters
	s, err := NewSubscriber(Config{Agent: a, Mode: ModePredicate, Geometry: geo})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubscribeQuery("subjects = 'tech/linux' AND urgency >= 6"); err != nil {
		t.Fatal(err)
	}
	row := astrolabe.Row{Name: "child", Attrs: value.Map{
		astrolabe.AttrSubs: a.Attr(astrolabe.AttrSubs),
		AttrSubGroups:      a.Attr(AttrSubGroups),
	}}
	filter := ForwardFilter(ModePredicate, geo, &ctr)

	calm := testItem() // tech/linux, urgency 5
	envCalm, _ := EncodeItem(calm, ModePredicate, geo, nil)
	if filter("/", row, &envCalm) {
		t.Fatal("urgency below the predicate range forwarded — no precision win")
	}
	urgent := testItem()
	urgent.Urgency = 7
	envHot, _ := EncodeItem(urgent, ModePredicate, geo, nil)
	if !filter("/", row, &envHot) {
		t.Fatal("matching item pruned — signature unsound")
	}
	wrongSubj := testItem()
	wrongSubj.Subjects = []string{"sports/soccer"}
	wrongSubj.Urgency = 7
	envWS, _ := EncodeItem(wrongSubj, ModePredicate, geo, nil)
	if filter("/", row, &envWS) {
		t.Fatal("non-matching subject forwarded")
	}
	snap := ctr.Snapshot()
	if snap.Forwards != 1 || snap.SubgroupTests == 0 {
		t.Fatalf("counters = %+v, want 1 forward and subgroup tests > 0", snap)
	}

	// ModeBloom over plain subject bits cannot see the urgency constraint:
	// both tech/linux items pass its filter — the false positives
	// ModePredicate prunes.
	fb := bloom.New(geo.Bits, geo.Hashes)
	fb.Add("tech/linux")
	bloomRow := rowWithSubs(fb)
	bloomFilter := ForwardFilter(ModeBloom, geo, nil)
	envCalmB, _ := EncodeItem(calm, ModeBloom, geo, nil)
	if !bloomFilter("/", bloomRow, &envCalmB) {
		t.Fatal("bloom baseline broken")
	}
}

func TestForwardFilterPredicateFallbacks(t *testing.T) {
	geo := Geometry{Bits: 1024, Hashes: 4}
	// Build the raw subs filter an older (or BIT_OR-aggregating) row
	// would carry: leaves no longer advertise it, but the forwarding
	// test still honors it as the fallback summary.
	sf := bloom.New(geo.Bits, geo.Hashes)
	query.SubjectsSignature([]string{"tech/linux"}).Fill(sf)
	subs := value.Bytes(sf.Bytes())
	env, _ := EncodeItem(testItem(), ModePredicate, geo, nil)
	filter := ForwardFilter(ModePredicate, geo, nil)

	// No subg attribute: the OR-aggregated subs filter decides.
	if !filter("/", astrolabe.Row{Attrs: value.Map{astrolabe.AttrSubs: subs}}, &env) {
		t.Fatal("subs fallback did not forward a matching item")
	}
	// Malformed subg (scrambled row): same fallback, never a lost delivery.
	mal := astrolabe.Row{Attrs: value.Map{
		astrolabe.AttrSubs: subs,
		AttrSubGroups:      value.Bytes([]byte{0x00, 0x13, 0x9a}),
	}}
	if !filter("/", mal, &env) {
		t.Fatal("malformed subgroup set lost a delivery instead of falling back")
	}
	// Neither attribute: prune.
	if filter("/", astrolabe.Row{Attrs: value.Map{}}, &env) {
		t.Fatal("row without any summary forwarded")
	}
	// Envelope encoded under another mode (no predicate position groups):
	// the filter recomputes positions rather than misreading the layout.
	envBloom, _ := EncodeItem(testItem(), ModeBloom, geo, nil)
	if !filter("/", astrolabe.Row{Attrs: value.Map{astrolabe.AttrSubs: subs}}, &envBloom) {
		t.Fatal("cross-mode envelope not recomputed")
	}
}
