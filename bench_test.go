// Benchmarks: one Benchmark<ID>... target per experiment in DESIGN.md's
// index (E1–E8, A1–A4) — each regenerates its table at quick scale — plus
// micro-benchmarks of the hot paths (gossip merge, aggregation, Bloom
// tests, routing, caching).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Full-size tables come from cmd/newswire-bench.
package newswire_test

import (
	"fmt"
	"testing"
	"time"

	"newswire"
	"newswire/internal/astrolabe"
	"newswire/internal/bloom"
	"newswire/internal/cache"
	"newswire/internal/experiments"
	"newswire/internal/news"
	"newswire/internal/pubsub"
	"newswire/internal/sqlagg"
	"newswire/internal/value"
	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// benchOpts returns distinct-seed quick options per iteration so repeated
// runs exercise different deterministic universes.
func benchOpts(i int) experiments.Options {
	return experiments.Options{Quick: true, Seed: int64(i + 1)}
}

func BenchmarkE1DeliveryLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE1(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE2PullRedundancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE2(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE3BloomAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE3(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE4PublisherLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE4(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE5Overload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE5(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE6Robustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE6(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE7Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE7(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE8FilterScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunE8(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkA1QueueStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunA1(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkA2RepElection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunA2(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkA3ZoneScoping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunA3(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkA4GossipParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunA4(benchOpts(i)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- micro-benchmarks of the hot paths ---

func BenchmarkBloomAddTest(b *testing.B) {
	f := bloom.New(bloom.DefaultBits, bloom.DefaultHashes)
	subjects := news.StandardSubjects
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := subjects[i%len(subjects)]
		f.Add(s)
		if !f.Test(s) {
			b.Fatal("false negative")
		}
	}
}

func BenchmarkBloomMerge(b *testing.B) {
	x := bloom.New(bloom.DefaultBits, bloom.DefaultHashes)
	y := bloom.New(bloom.DefaultBits, bloom.DefaultHashes)
	for _, s := range news.StandardSubjects {
		y.Add(s)
	}
	snapshot := y.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.MergeBytes(snapshot); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregationEval(b *testing.B) {
	prog := sqlagg.MustParse(`SELECT
		SUM(COALESCE(nmembers, 1)) AS nmembers,
		REPS(3, load, COALESCE(reps, addr)) AS reps,
		MINV(load, addr) AS addr,
		MIN(load) AS load,
		BIT_OR(subs) AS subs`)
	rows := make([]value.Map, 64)
	blob := make([]byte, 128)
	for i := range rows {
		rows[i] = value.Map{
			"addr": value.String(fmt.Sprintf("n%d", i)),
			"load": value.Float(float64(i) / 64),
			"subs": value.Bytes(blob),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Eval(rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValueMapCodec(b *testing.B) {
	m := value.Map{
		"addr": value.String("node-1:9000"),
		"load": value.Float(0.25),
		"subs": value.Bytes(make([]byte, 128)),
		"reps": value.Strings([]string{"a:1", "b:2", "c:3"}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := m.AppendBinary(nil)
		if _, _, err := value.DecodeMap(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForwardFilterBloom(b *testing.B) {
	geo := pubsub.DefaultGeometry
	filter := pubsub.ForwardFilter(pubsub.ModeBloom, geo, nil)
	f := bloom.New(geo.Bits, geo.Hashes)
	f.Add("tech/linux")
	row := astrolabe.Row{
		Name:  "child",
		Attrs: value.Map{astrolabe.AttrSubs: value.Bytes(f.Bytes())},
	}
	it := &news.Item{
		Publisher: "p", ID: "i", Headline: "h", Body: "b",
		Subjects: []string{"tech/linux"}, Published: time.Unix(0, 0),
	}
	env, err := pubsub.EncodeItem(it, pubsub.ModeBloom, geo)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !filter("/", row, &env) {
			b.Fatal("filter rejected subscribed item")
		}
	}
}

func BenchmarkCachePut(b *testing.B) {
	c, err := cache.New(cache.Config{Clock: vtime.NewVirtual(), MaxItems: 4096})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(wire.ItemEnvelope{
			Publisher: "p", ItemID: fmt.Sprintf("i%d", i),
			Subjects: []string{"tech/linux"},
		})
	}
}

func BenchmarkNITFRoundTrip(b *testing.B) {
	it := &news.Item{
		Publisher: "reuters", ID: "item", Headline: "headline",
		Abstract: "abstract", Body: "body text of moderate length for the benchmark",
		Subjects: []string{"world/asia"}, Urgency: 4,
		Published: time.Unix(1017619200, 0).UTC(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := news.MarshalNITF(it)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := news.UnmarshalNITF(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGossipRound measures one full gossip round of a 64-node
// cluster (ticks plus message drain) in the simulator, comparing the
// full-state anti-entropy fallback against digest-based delta gossip on
// the paper's 64-row leaf-zone shape. The bytes/round metric is the
// steady-state network traffic the whole cluster generates per round.
func BenchmarkGossipRound(b *testing.B) {
	run := func(b *testing.B, fullState, traced bool, healthEvery int) {
		cluster, err := newswire.NewCluster(newswire.ClusterConfig{
			N: 64, Branching: 64, Seed: 1, Trace: traced,
			Customize: func(i int, cfg *newswire.Config) {
				cfg.DisableDeltaGossip = fullState
				cfg.HealthEvery = healthEvery
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range cluster.Nodes {
			if err := n.Subscribe("tech/linux"); err != nil {
				b.Fatal(err)
			}
		}
		cluster.RunRounds(5)
		startBytes, _ := cluster.Net.BytesTotals()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cluster.RunRounds(1)
		}
		b.StopTimer()
		endBytes, _ := cluster.Net.BytesTotals()
		b.ReportMetric(float64(endBytes-startBytes)/float64(b.N), "bytes/round")
	}
	b.Run("full", func(b *testing.B) { run(b, true, false, 0) })
	b.Run("delta", func(b *testing.B) { run(b, false, false, 0) })
	// The traced arm attaches the span collector; gossip traffic emits no
	// spans, so any delta against the arm above is pure recorder overhead.
	b.Run("delta-traced", func(b *testing.B) { run(b, false, true, 0) })
	// The health arms fold sys$health$* telemetry digests into the MIB
	// every 2 ticks; their deltas over the arms above are the gossip-borne
	// cost of the self-monitoring plane (E12 gates them at <= 5%).
	b.Run("delta-health", func(b *testing.B) { run(b, false, false, 2) })
	b.Run("delta-health-traced", func(b *testing.B) { run(b, false, true, 2) })
}

// TestGossipRoundTraceOverheadGuard is the CI gate on the disabled-tracing
// hot path: a steady-state gossip round with a nil recorder must stay near
// the pre-observability baseline, and attaching a recorder must not change
// the gossip path's allocations at all — gossip emits no spans. Note the
// ceiling is calibrated to testing.AllocsPerRun, which reads well above
// the amortized -benchmem number for the same workload (~8.5k/round here
// vs the benchmark's ~3.6k delta allocs/op: shared-row caches warmed in
// early rounds amortize across a long benchmark but not across 3 runs).
func TestGossipRoundTraceOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	measure := func(traced bool) float64 {
		cluster, err := newswire.NewCluster(newswire.ClusterConfig{
			N: 64, Branching: 64, Seed: 1, Trace: traced,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range cluster.Nodes {
			if err := n.Subscribe("tech/linux"); err != nil {
				t.Fatal(err)
			}
		}
		cluster.RunRounds(5)
		return testing.AllocsPerRun(3, func() { cluster.RunRounds(1) })
	}
	nilRec := measure(false)
	attached := measure(true)
	t.Logf("allocs/round: recorder nil %.0f, attached %.0f", nilRec, attached)
	const ceiling = 9500 // ~8.5k measured via AllocsPerRun + ~10% headroom
	if nilRec > ceiling {
		t.Errorf("nil-recorder gossip round allocates %.0f/op, above the %d baseline ceiling", nilRec, ceiling)
	}
	if attached > ceiling {
		t.Errorf("attached-recorder gossip round allocates %.0f/op, above the %d ceiling", attached, ceiling)
	}
	// The benchmark's delta vs delta-traced arms are alloc-identical; allow
	// only trivial jitter between the two harness runs here.
	if attached-nilRec > 500 {
		t.Errorf("attaching a recorder added %.0f allocs/round to the gossip path, want ~0", attached-nilRec)
	}
}

// BenchmarkGossipRound4096 measures one gossip round of a 4096-node
// cluster (the largest standard E1 point) under the serial engine and
// under the deterministic parallel executor with GOMAXPROCS workers.
// Both arms produce bit-identical simulations; the parallel arm's gain
// scales with available cores (a single-core host shows parity). Run
// with -benchmem: the alloc reduction between arms and across revisions
// is part of what this benchmark guards.
func BenchmarkGossipRound4096(b *testing.B) {
	run := func(b *testing.B, workers int) {
		cluster, err := newswire.NewCluster(newswire.ClusterConfig{
			N: 4096, Branching: 64, Seed: 1, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range cluster.Nodes {
			if err := n.Subscribe("tech/linux"); err != nil {
				b.Fatal(err)
			}
		}
		cluster.RunRounds(2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cluster.RunRounds(1)
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 0) })
	b.Run("parallel", func(b *testing.B) { run(b, -1) })
}

// BenchmarkPublishDelivery measures one end-to-end publish through a
// warmed 64-node cluster.
func BenchmarkPublishDelivery(b *testing.B) {
	cluster, err := newswire.NewCluster(newswire.ClusterConfig{
		N: 64, Branching: 16, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range cluster.Nodes {
		if err := n.Subscribe("tech/linux"); err != nil {
			b.Fatal(err)
		}
	}
	cluster.RunRounds(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := &news.Item{
			Publisher: "bench", ID: fmt.Sprintf("b%d", i),
			Headline: "x", Body: "y",
			Subjects:  []string{"tech/linux"},
			Published: cluster.Eng.Now(),
		}
		if err := cluster.Nodes[0].PublishItem(it, "", ""); err != nil {
			b.Fatal(err)
		}
		cluster.RunFor(2 * time.Second)
	}
}
