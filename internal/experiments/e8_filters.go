package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/core"
	"newswire/internal/news"
	"newswire/internal/pubsub"
	"newswire/internal/wire"
	"newswire/internal/workload"
)

// RunE8 sweeps the three subscription-summary representations against an
// identical workload and measures routing precision. §6 rejects the
// attribute-per-subscription strawman ("the work done for purposes of
// filtering would be at least linear in the number of subscriptions") in
// favor of Bloom filters, and §7 sharpens the Bloom design into typed SQL
// predicates compiled to signatures plus zone subgrouping. The sweep
// quantifies both steps: attributes lose on row size, and plain Bloom
// loses on precision — a subject-only filter cannot express the urgency
// constraint every subscriber here carries, so every urgency miss is a
// false-positive forward that the leaf's exact test discards. The
// predicate arm routes on the compiled constraint and prunes those
// forwards inside the zone hierarchy.
//
// Every arm uses the same seeded draws (subjects, urgency thresholds,
// publish schedule) and ends at the same exact delivered set, so recall
// is equal by construction and the arms differ only in wasted forwarding
// and summary bytes.
func RunE8(opt Options) *Table {
	subCounts := []int{16, 64, 256, 1024}
	items := 64
	if opt.Quick {
		subCounts = []int{16, 256}
		items = 32
	}
	t := &Table{
		ID:    "E8",
		Title: "Subscription summaries: predicate signatures vs. Bloom vs. attributes",
		Claim: "predicate signatures + subgrouping cut false-positive forwards vs. Bloom at equal recall (§6–7)",
		Columns: []string{"subscriptions", "mode", "root row attrs", "recall",
			"fp drops", "fp rate", "forwards", "KB/round/node", "ns/decision",
			"subg filters"},
	}

	const n = 48
	for _, subs := range subCounts {
		for _, mode := range []pubsub.Mode{pubsub.ModeBloom, pubsub.ModeAttributes, pubsub.ModePredicate} {
			row, prec := runE8Case(opt.Seed, n, subs, items, mode)
			t.AddRow(row...)
			t.Precision = append(t.Precision, prec)
		}
	}
	t.Nodes = n
	t.Volatile = []string{"ns/decision"}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d nodes; 4 zipf subjects + one urgency threshold per node; shared geometry %d bits / %d hashes",
			n, e8Geometry.Bits, e8Geometry.Hashes),
		"bloom/attributes filter urgency at the leaf (SetPredicate); predicate compiles it into the routed signature")
	return t
}

// e8Geometry is shared by the bloom and predicate arms so the comparison
// isolates what the signature encodes, not how big the filter is. Multiple
// hashes are what make subgrouping pay: a k-hash subgroup filter stays
// sparse where the OR-union of a zone's members saturates.
var e8Geometry = pubsub.Geometry{Bits: 2048, Hashes: 4}

func runE8Case(seed int64, n, subjectPool, items int, mode pubsub.Mode) ([]string, PrecisionRow) {
	errRow := func(err error) ([]string, PrecisionRow) {
		return []string{fmt.Sprint(subjectPool), mode.String(), "error: " + err.Error(),
			"", "", "", "", "", "", ""}, PrecisionRow{}
	}
	// Build the synthetic subject universe.
	pool := make([]string, subjectPool)
	for i := range pool {
		pool[i] = fmt.Sprintf("topic-%04d/sub", i)
	}
	delivered := make([]int64, n)
	// The cluster seed deliberately excludes the mode: all three arms run
	// the exact same gossip partner schedule, so the bytes comparison is
	// paired rather than noisy across seeds.
	cluster, err := core.NewCluster(core.ClusterConfig{
		N: n, Branching: 16, Seed: seed + int64(subjectPool),
		Customize: func(i int, cfg *core.Config) {
			cfg.Mode = mode
			cfg.Geometry = e8Geometry
			// Reliable forwarding: the default WAN link drops 1% of
			// frames, and recall must be exactly 1.0 in every arm for the
			// precision comparison to mean anything.
			cfg.AckTimeout = time.Second
			idx := i
			cfg.OnItem = func(it *news.Item, env *wire.ItemEnvelope) {
				delivered[idx]++
			}
		},
	})
	if err != nil {
		return errRow(err)
	}

	// One workload stream per subscription count, shared verbatim by all
	// modes: same subjects, same urgency thresholds, same publish
	// schedule. Node 0 is a pure publisher so no arm depends on
	// self-delivery.
	wrng := rand.New(rand.NewSource(seed*7 + int64(subjectPool)))
	subsOf := make([][]string, n)
	urgOf := make([]int, n)
	for i := 1; i < n; i++ {
		subsOf[i] = workload.SampleSubscriptions(wrng, pool, 4, 1.0)
		urgOf[i] = 2 + wrng.Intn(6)
		switch mode {
		case pubsub.ModePredicate:
			quoted := make([]string, len(subsOf[i]))
			for j, s := range subsOf[i] {
				quoted[j] = "'" + s + "'"
			}
			q := fmt.Sprintf("subjects IN (%s) AND urgency >= %d",
				strings.Join(quoted, ", "), urgOf[i])
			if _, err := cluster.Nodes[i].SubscribeQuery(q); err != nil {
				return errRow(err)
			}
		default:
			if err := cluster.Nodes[i].Subscribe(subsOf[i]...); err != nil {
				return errRow(err)
			}
			// The summary cannot express urgency; the subscriber still
			// wants it, so the leaf filters exactly — every urgency miss
			// that reaches the node is a counted false-positive drop.
			if err := cluster.Nodes[i].SetPredicate(fmt.Sprintf("urgency >= %d", urgOf[i])); err != nil {
				return errRow(err)
			}
		}
	}

	// Let the summaries propagate, then measure steady-state gossip in a
	// publish-free window: the cost of carrying this summary shape.
	cluster.RunRounds(6)
	startBytes := make([]int64, n)
	for i, node := range cluster.Nodes {
		startBytes[i] = cluster.Net.Stats(node.Addr()).BytesSent
	}
	const windowRounds = 5
	cluster.RunRounds(windowRounds)
	var totalBytes int64
	for i, node := range cluster.Nodes {
		totalBytes += cluster.Net.Stats(node.Addr()).BytesSent - startBytes[i]
	}
	bytesPerRoundPerNode := float64(totalBytes) / float64(windowRounds) / float64(n)

	// Root-row attribute counts (the gossip payload growth §6 warns
	// about) and the per-decision forwarding-filter cost against a root
	// row carrying the full aggregated summary.
	rows, _ := cluster.Nodes[0].Agent().Table(astrolabe.RootZone)
	maxAttrs := 0
	for _, r := range rows {
		if len(r.Attrs) > maxAttrs {
			maxAttrs = len(r.Attrs)
		}
	}
	env, _ := pubsub.EncodeItem(e8Probe(pool[0]), mode, e8Geometry)
	filter := pubsub.ForwardFilter(mode, e8Geometry, nil)
	var row astrolabe.Row
	if len(rows) > 0 {
		row = rows[0]
	}
	const reps = 20000
	startT := time.Now()
	for i := 0; i < reps; i++ {
		filter("/", row, &env)
	}
	perOp := time.Since(startT) / reps

	// Publish phase: one shared schedule, expected exact matches computed
	// against the drawn interests.
	expected := int64(0)
	for j := 0; j < items; j++ {
		subj := pool[wrng.Intn(len(pool))]
		urg := 1 + wrng.Intn(news.UrgencyMax)
		it := &news.Item{
			Publisher: "bench", ID: fmt.Sprintf("item-%04d", j),
			Headline: "probe", Body: "b",
			Subjects: []string{subj}, Urgency: urg,
			Published: time.Date(2002, 4, 1, 0, 0, 0, 0, time.UTC),
		}
		if err := cluster.Nodes[0].PublishItem(it, "", ""); err != nil {
			return errRow(err)
		}
		for i := 1; i < n; i++ {
			if urg >= urgOf[i] && containsSubject(subsOf[i], subj) {
				expected++
			}
		}
		if j%8 == 7 {
			cluster.RunRounds(2)
		}
	}
	cluster.RunRounds(20)

	var got int64
	for _, d := range delivered {
		got += d
	}
	recall := 1.0
	if expected > 0 {
		recall = float64(got) / float64(expected)
	}
	var fwd, fpd, exact, sgTests int64
	for _, node := range cluster.Nodes {
		rs := node.RoutingStats()
		fwd += rs.Forwards
		fpd += rs.FalsePositiveDrops
		exact += rs.ExactMatches
		sgTests += rs.SubgroupTests
	}
	fpRate := 0.0
	if fpd+exact > 0 {
		fpRate = float64(fpd) / float64(fpd+exact)
	}
	subgFilters := cluster.Nodes[0].SubgroupFilters()

	prec := PrecisionRow{
		Label:                fmt.Sprintf("%d subs / %s", subjectPool, mode),
		Mode:                 mode.String(),
		Subscriptions:        subjectPool,
		RootAttrs:            maxAttrs,
		Recall:               recall,
		ExactMatches:         exact,
		FPDrops:              fpd,
		FPRate:               fpRate,
		Forwards:             fwd,
		SubgroupTests:        sgTests,
		BytesPerRoundPerNode: bytesPerRoundPerNode,
		NsPerDecision:        perOp.Nanoseconds(),
		SubgroupFilters:      subgFilters,
	}
	return []string{
		fmt.Sprint(subjectPool),
		mode.String(),
		fmt.Sprint(maxAttrs),
		fmt.Sprintf("%.3f", recall),
		fmt.Sprint(fpd),
		fmtPct(fpRate),
		fmt.Sprint(fwd),
		fmt.Sprintf("%.1f", bytesPerRoundPerNode/1024),
		fmt.Sprint(perOp.Nanoseconds()),
		fmt.Sprint(subgFilters),
	}, prec
}

func containsSubject(subs []string, subject string) bool {
	for _, s := range subs {
		if s == subject {
			return true
		}
	}
	return false
}

func e8Probe(subject string) *news.Item {
	return &news.Item{
		Publisher: "bench", ID: "probe", Headline: "probe", Body: "b",
		Subjects: []string{subject}, Urgency: 7,
		Published: time.Date(2002, 4, 1, 0, 0, 0, 0, time.UTC),
	}
}
