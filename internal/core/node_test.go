package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/news"
	"newswire/internal/pubsub"
	"newswire/internal/sim"
	"newswire/internal/vtime"
	"newswire/internal/wire"
)

func newTestRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func testItem(id, subject string) *news.Item {
	return &news.Item{
		Publisher: "slashdot",
		ID:        id,
		Headline:  "headline " + id,
		Body:      "body " + id,
		Subjects:  []string{subject},
		Urgency:   5,
		Published: vtime.Epoch.Add(time.Minute),
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestClusterEndToEndPubSub(t *testing.T) {
	delivered := make(map[int][]string)
	c, err := NewCluster(ClusterConfig{
		N:         12,
		Branching: 4,
		Seed:      42,
		Customize: func(i int, cfg *Config) {
			cfg.OnItem = func(it *news.Item, env *wire.ItemEnvelope) {
				delivered[i] = append(delivered[i], it.Key())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Half the nodes subscribe to tech/linux, the rest to sports.
	for i, n := range c.Nodes {
		if i%2 == 0 {
			if err := n.Subscribe("tech/linux"); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := n.Subscribe("sports/soccer"); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.RunRounds(10) // let subscriptions aggregate to the root

	if err := c.Nodes[0].PublishItem(testItem("k1", "tech/linux"), "", ""); err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Second)

	for i := range c.Nodes {
		wantDelivered := i%2 == 0
		got := len(delivered[i]) == 1
		if wantDelivered && !got {
			t.Errorf("subscriber node %d did not receive the item", i)
		}
		if !wantDelivered && len(delivered[i]) != 0 {
			t.Errorf("non-subscriber node %d received %v", i, delivered[i])
		}
	}
}

// TestClusterLatencyMeasured checks the headline claim (E1) at small
// scale: delivery within "tens of seconds" of publishing.
func TestClusterLatencyMeasured(t *testing.T) {
	type delivery struct {
		node int
		at   time.Time
	}
	var deliveries []delivery
	var clock vtime.Clock
	c, err := NewCluster(ClusterConfig{
		N:         30,
		Branching: 8,
		Seed:      7,
		Customize: func(i int, cfg *Config) {
			node := i
			// Reliable forwarding: the default link model loses 1% of
			// frames, so exact delivery counts need ack/retry.
			cfg.AckTimeout = time.Second
			cfg.OnItem = func(*news.Item, *wire.ItemEnvelope) {
				deliveries = append(deliveries, delivery{node: node, at: clock.Now()})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clock = c.Eng.Clock()
	for _, n := range c.Nodes {
		n.Subscribe("tech/linux")
	}
	c.RunRounds(10)

	published := c.Eng.Now()
	if err := c.Nodes[0].PublishItem(testItem("lat", "tech/linux"), "", ""); err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * time.Second)

	if len(deliveries) != len(c.Nodes) {
		t.Fatalf("delivered to %d of %d nodes", len(deliveries), len(c.Nodes))
	}
	for _, d := range deliveries {
		latency := d.at.Sub(published)
		if latency > 10*time.Second {
			t.Errorf("node %d latency %v exceeds tens of seconds", d.node, latency)
		}
	}
}

func TestStateTransferRecovery(t *testing.T) {
	received := make(map[int]int)
	c, err := NewCluster(ClusterConfig{
		N:         4,
		Branching: 4, // all in one leaf zone
		Seed:      11,
		Customize: func(i int, cfg *Config) {
			cfg.OnItem = func(*news.Item, *wire.ItemEnvelope) { received[i]++ }
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.Subscribe("tech/linux")
	}
	c.RunRounds(6)

	// Node 3 is down while two items are published.
	c.Net.Crash(c.Nodes[3].Addr())
	c.Nodes[0].PublishItem(testItem("missed-1", "tech/linux"), "", "")
	c.Nodes[0].PublishItem(testItem("missed-2", "tech/linux"), "", "")
	c.RunFor(5 * time.Second)
	if received[3] != 0 {
		t.Fatal("crashed node received items")
	}

	// Node 3 returns and recovers from a zone peer's cache.
	c.Net.Restore(c.Nodes[3].Addr())
	c.RunRounds(2)
	if err := c.Nodes[3].RecoverFromZonePeer(100); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)

	if received[3] != 2 {
		t.Fatalf("recovered node received %d items, want 2", received[3])
	}
	// Recovery is idempotent: a second transfer delivers nothing new.
	if err := c.Nodes[3].RecoverFromZonePeer(100); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	if received[3] != 2 {
		t.Fatalf("duplicate state transfer re-delivered: %d", received[3])
	}
}

func TestPublisherRosterAggregates(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 6, Branching: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.Subscribe("tech/linux")
	}
	c.RunRounds(6)
	c.Nodes[0].PublishItem(testItem("a", "tech/linux"), "", "")
	it := testItem("b", "tech/linux")
	it.Publisher = "wired"
	c.Nodes[5].PublishItem(it, "", "")
	c.RunRounds(8)

	pubs := c.Nodes[2].KnownPublishers()
	if len(pubs) != 2 || pubs[0] != "slashdot" || pubs[1] != "wired" {
		t.Fatalf("roster = %v, want [slashdot wired]", pubs)
	}
}

func TestPublishFlowControl(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		N: 2, Branching: 2, Seed: 3,
		Customize: func(i int, cfg *Config) {
			cfg.PublishRate = 1
			cfg.PublishBurst = 2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[0]
	n.Subscribe("tech/linux")
	okCount := 0
	for i := 0; i < 10; i++ {
		if err := n.PublishItem(testItem(fmt.Sprintf("flood-%d", i), "tech/linux"), "", ""); err == nil {
			okCount++
		}
	}
	if okCount != 2 {
		t.Fatalf("admitted %d publications, want burst of 2", okCount)
	}
}

func TestAdmissionControlAtForwarder(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		N: 2, Branching: 2, Seed: 3,
		Customize: func(i int, cfg *Config) {
			if i == 1 {
				cfg.PublishRate = 1
				cfg.PublishBurst = 1
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Nodes[1].Subscribe("tech/linux")
	c.RunRounds(6)

	// Node 0 floods; node 1's admission control must refuse the excess.
	for i := 0; i < 20; i++ {
		c.Nodes[0].PublishItem(testItem(fmt.Sprintf("f%d", i), "tech/linux"), "", "")
	}
	c.RunFor(5 * time.Second)
	if denied := c.Nodes[1].DeniedPublications("slashdot"); denied == 0 {
		t.Fatal("forwarder admission control never engaged")
	}
	if c.Nodes[1].Delivered() == 0 {
		t.Fatal("admission control starved even the admitted publications")
	}
}

func TestSecurityEndToEnd(t *testing.T) {
	clock := vtime.NewVirtual()
	realm, err := NewRealm(clock, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var secs []*Security
	for i := 0; i < 4; i++ {
		sec, err := realm.Member(fmt.Sprintf("node-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		secs = append(secs, sec)
	}
	if err := realm.Publisher(secs[0], "slashdot"); err != nil {
		t.Fatal(err)
	}

	received := make(map[int]int)
	c, err := NewCluster(ClusterConfig{
		N: 4, Branching: 2, Seed: 5,
		Customize: func(i int, cfg *Config) {
			cfg.Security = secs[i]
			cfg.OnItem = func(*news.Item, *wire.ItemEnvelope) { received[i]++ }
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.Subscribe("tech/linux")
	}
	c.RunRounds(8)

	// Signed publication from the authorized publisher flows everywhere.
	if err := c.Nodes[0].PublishItem(testItem("signed", "tech/linux"), "", ""); err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Second)
	for i := range c.Nodes {
		if received[i] != 1 {
			t.Errorf("node %d received %d signed items, want 1", i, received[i])
		}
	}

	// A node without a publisher certificate cannot publish.
	if err := c.Nodes[1].PublishItem(testItem("rogue", "tech/linux"), "", ""); err == nil {
		t.Fatal("node without publisher key published")
	}

	// A forged envelope injected directly is dropped by verification.
	forged, _ := pubsub.EncodeItem(testItem("forged", "tech/linux"),
		pubsub.ModeBloom, pubsub.DefaultGeometry)
	forged.Signer = "slashdot"
	forged.Sig = []byte("not a signature")
	c.Nodes[2].HandleMessage(&wire.Message{
		Kind:      wire.KindMulticast,
		From:      "evil",
		Multicast: &wire.Multicast{TargetZone: c.Nodes[2].ZonePath(), Envelope: forged},
	})
	c.RunFor(5 * time.Second)
	for i := range c.Nodes {
		if received[i] > 1 {
			t.Errorf("node %d accepted a forged item", i)
		}
	}
}

func TestGossipSigningRejectsUncertifiedAgent(t *testing.T) {
	clock := vtime.NewVirtual()
	realm, err := NewRealm(clock, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	sec0, _ := realm.Member("node-0")

	eng := sim.NewEngine(9)
	net := sim.NewNetwork(eng, sim.LinkModel{})
	// Node 0 verifies rows; the rogue signs with an unknown identity.
	var n0 *Node
	ep0 := net.Attach("n0", func(m *wire.Message) { n0.HandleMessage(m) })
	n0cfg := Config{
		Name: "node-0", ZonePath: "/z", Transport: ep0,
		Clock: eng.Clock(), Rand: newTestRand(1), Security: sec0,
	}
	var err2 error
	n0, err2 = NewNode(n0cfg)
	if err2 != nil {
		t.Fatal(err2)
	}

	// Rogue row injected as gossip: unsigned.
	n0.HandleMessage(&wire.Message{
		Kind: wire.KindGossip,
		From: "rogue",
		Gossip: &wire.Gossip{
			FromZone: "/z",
			Rows: []wire.RowUpdate{{
				Zone: "/z", Name: "intruder",
				Attrs:  nil,
				Issued: eng.Now(),
				Owner:  "rogue",
			}},
		},
	})
	eng.RunUntilIdle(0)
	if _, ok := n0.Agent().Row("/z", "intruder"); ok {
		t.Fatal("unsigned row merged into a verifying agent")
	}
}

func TestZonePathForShapesTree(t *testing.T) {
	// Small flat case: everyone under one or two leaf zones off the root.
	for i := 0; i < 10; i++ {
		p := ZonePathFor(i, 10, 8)
		if err := astrolabe.ValidateZonePath(p); err != nil {
			t.Fatalf("invalid path %q: %v", p, err)
		}
		if astrolabe.ZoneDepth(p) != 1 {
			t.Fatalf("n=10 b=8: depth of %q = %d, want 1", p, astrolabe.ZoneDepth(p))
		}
	}
	// Larger case: two levels.
	seenZones := make(map[string]int)
	const n, b = 1000, 8
	for i := 0; i < n; i++ {
		p := ZonePathFor(i, n, b)
		if err := astrolabe.ValidateZonePath(p); err != nil {
			t.Fatalf("invalid path %q: %v", p, err)
		}
		seenZones[p]++
		if seenZones[p] > b {
			t.Fatalf("leaf zone %q has more than %d members", p, b)
		}
	}
	// Leaf zones should number ceil(n/b).
	if len(seenZones) != (n+b-1)/b {
		t.Fatalf("got %d leaf zones, want %d", len(seenZones), (n+b-1)/b)
	}
}

func TestNodesInZone(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 8, Branching: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	all := c.NodesInZone("/")
	if len(all) != 8 {
		t.Fatalf("root zone has %d nodes", len(all))
	}
	some := c.NodesInZone(c.Nodes[0].ZonePath())
	if len(some) == 0 || len(some) > 2 {
		t.Fatalf("leaf zone has %d nodes", len(some))
	}
}

func TestStartStopTicking(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 4, Branching: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.StartTicking()
	c.RunFor(10 * time.Second)
	st := c.Nodes[0].Agent().Stats()
	if st.GossipsSent == 0 {
		t.Fatal("ticking produced no gossip")
	}
	c.StopTicking()
	before := c.Nodes[0].Agent().Stats().GossipsSent
	c.RunFor(10 * time.Second)
	if c.Nodes[0].Agent().Stats().GossipsSent != before {
		t.Fatal("gossip continued after StopTicking")
	}
}

func TestDeepHierarchyEndToEnd(t *testing.T) {
	// branching 4 with 64 nodes yields a 3-level zone tree; publish must
	// traverse representatives at every level.
	delivered := make(map[int]int)
	c, err := NewCluster(ClusterConfig{
		N:         64,
		Branching: 4,
		Seed:      31337,
		Customize: func(i int, cfg *Config) {
			cfg.RepCount = 2
			node := i
			cfg.OnItem = func(*news.Item, *wire.ItemEnvelope) { delivered[node]++ }
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	depth := astrolabe.ZoneDepth(c.Nodes[0].ZonePath())
	if depth < 2 {
		t.Fatalf("tree depth = %d, want >= 2 for this test", depth)
	}
	for _, n := range c.Nodes {
		if err := n.Subscribe("world/asia"); err != nil {
			t.Fatal(err)
		}
	}
	c.RunRounds(14) // deeper trees need more rounds to aggregate

	if err := c.Nodes[63].PublishItem(testItem("deep", "world/asia"), "", ""); err != nil {
		t.Fatal(err)
	}
	c.RunFor(20 * time.Second)

	missing := 0
	for i := range c.Nodes {
		if delivered[i] != 1 {
			missing++
		}
	}
	// 1% loss with k=2: allow at most one straggler pre-recovery.
	if missing > 1 {
		t.Fatalf("%d of 64 nodes missed the item in a depth-%d tree", missing, depth)
	}
}

func TestClusterChurnJoinAfterStart(t *testing.T) {
	// A node that joins after the cluster has been running learns the
	// hierarchy through an introduction and catches up on missed items
	// through state transfer.
	c, err := NewCluster(ClusterConfig{N: 8, Branching: 4, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.Subscribe("tech/linux")
	}
	c.RunRounds(6)
	c.Nodes[0].PublishItem(testItem("before-join", "tech/linux"), "", "")
	c.RunFor(5 * time.Second)

	// Build the late joiner in the same leaf zone as node 1.
	var joiner *Node
	ep := c.Net.Attach("late", func(m *wire.Message) { joiner.HandleMessage(m) })
	j, err := NewNode(Config{
		Name:      "late-node",
		ZonePath:  c.Nodes[1].ZonePath(),
		Transport: ep,
		Clock:     c.Eng.Clock(),
		Rand:      newTestRand(999),
	})
	if err != nil {
		t.Fatal(err)
	}
	joiner = j
	joiner.Subscribe("tech/linux")
	// Introduction: merge an existing member's chain rows.
	joiner.Agent().MergeRows(c.Nodes[1].Agent().ChainRowUpdates())

	// The joiner gossips along with everyone else.
	for round := 0; round < 8; round++ {
		for _, n := range c.Nodes {
			n.Tick()
		}
		joiner.Tick()
		c.Eng.RunFor(2 * time.Second)
	}

	// Members' tables now include the joiner.
	if _, ok := c.Nodes[1].Agent().Row(joiner.ZonePath(), "late-node"); !ok {
		t.Fatal("existing member never learned about the joiner")
	}

	// State transfer catches the joiner up on the missed item.
	if err := joiner.RecoverFromZonePeer(10); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunFor(5 * time.Second)
	if !joiner.Cache().Has("slashdot/before-join#0") {
		t.Fatal("joiner did not receive the pre-join item via state transfer")
	}

	// And new publications reach it directly.
	c.Nodes[0].PublishItem(testItem("after-join", "tech/linux"), "", "")
	c.Eng.RunFor(5 * time.Second)
	if !joiner.Cache().Has("slashdot/after-join#0") {
		t.Fatal("joiner did not receive post-join item")
	}
}

func TestNodeAccessorsAndSubscriptionOps(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 2, Branching: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[0]
	if n.Name() != "node-0" {
		t.Errorf("Name = %q", n.Name())
	}
	if n.Router() == nil || n.Agent() == nil || n.Cache() == nil {
		t.Error("component accessors returned nil")
	}
	if err := n.Subscribe("tech/linux", "world/asia"); err != nil {
		t.Fatal(err)
	}
	n.Unsubscribe("world/asia")
	subs := n.Subjects()
	if len(subs) != 1 || subs[0] != "tech/linux" {
		t.Errorf("Subjects = %v", subs)
	}
	if err := n.SetPredicate("urgency <= 5"); err != nil {
		t.Fatal(err)
	}
	if err := n.SetPredicate("bad("); err == nil {
		t.Error("bad predicate accepted")
	}
	n.SetLoad(0.75)
	if v, _ := n.Agent().Attr(astrolabe.AttrLoad).AsFloat(); v != 0.75 {
		t.Errorf("load attr = %v", v)
	}
}

func TestNodeSubscriberPredicateFiltersDelivery(t *testing.T) {
	received := 0
	c, err := NewCluster(ClusterConfig{
		N: 2, Branching: 2, Seed: 23,
		Customize: func(i int, cfg *Config) {
			if i == 1 {
				cfg.OnItem = func(*news.Item, *wire.ItemEnvelope) { received++ }
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Nodes[1].Subscribe("tech/linux")
	c.Nodes[1].SetPredicate("urgency <= 3")
	c.RunRounds(6)

	urgent := testItem("urgent", "tech/linux")
	urgent.Urgency = 1
	routine := testItem("routine", "tech/linux")
	routine.Urgency = 8
	c.Nodes[0].PublishItem(urgent, "", "")
	c.Nodes[0].PublishItem(routine, "", "")
	c.RunFor(5 * time.Second)

	if received != 1 {
		t.Fatalf("received %d items, want only the urgent one", received)
	}
}

func TestCategoryMaskModeEndToEnd(t *testing.T) {
	// The early prototype's per-publisher category interest (§7), end to
	// end, as predicate subscriptions.
	delivered := make(map[int]int)
	c, err := NewCluster(ClusterConfig{
		N: 4, Branching: 2, Seed: 29,
		Customize: func(i int, cfg *Config) {
			cfg.Mode = pubsub.ModePredicate
			node := i
			cfg.OnItem = func(*news.Item, *wire.ItemEnvelope) { delivered[node]++ }
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 follows slashdot's linux coverage; node 2 follows wired's.
	if err := c.Nodes[1].SubscribePublisher("slashdot", "tech/linux"); err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[2].SubscribePublisher("wired", "tech/linux"); err != nil {
		t.Fatal(err)
	}
	c.RunRounds(8)

	it := testItem("mask-item", "tech/linux") // publisher: slashdot
	if err := c.Nodes[0].PublishItem(it, "", ""); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)

	if delivered[1] != 1 {
		t.Error("slashdot subscriber missed the slashdot item")
	}
	if delivered[2] != 0 {
		t.Error("wired subscriber received a slashdot item")
	}
	// The wired subscriber's subtree was pruned upstream: the item never
	// reached node 2's leaf check at all.
	if rs := c.Nodes[2].RoutingStats(); rs.ExactMatches != 0 || rs.FalsePositiveDrops != 0 {
		t.Errorf("node 2 leaf check saw the item: %+v", rs)
	}
}

func TestStateReplySecurityFiltering(t *testing.T) {
	clock := vtime.NewVirtual()
	realm, err := NewRealm(clock, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := realm.Member("node-0")
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(77)
	net := sim.NewNetwork(eng, sim.LinkModel{})
	received := 0
	var n *Node
	ep := net.Attach("n0", func(m *wire.Message) { n.HandleMessage(m) })
	n, err = NewNode(Config{
		Name: "node-0", ZonePath: "/z", Transport: ep,
		Clock: eng.Clock(), Rand: newTestRand(3), Security: sec,
		OnItem: func(*news.Item, *wire.ItemEnvelope) { received++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Subscribe("tech/linux")

	// A state reply carrying an unsigned envelope must be discarded.
	env, _ := pubsub.EncodeItem(testItem("sneak", "tech/linux"),
		pubsub.ModeBloom, pubsub.DefaultGeometry)
	n.HandleMessage(&wire.Message{
		Kind:       wire.KindStateReply,
		From:       "evil",
		StateReply: &wire.StateReply{Envelopes: []wire.ItemEnvelope{env}},
	})
	eng.RunUntilIdle(0)
	if received != 0 {
		t.Fatal("unsigned envelope accepted via state transfer")
	}
}

func TestNewSecurityValidation(t *testing.T) {
	clock := vtime.NewVirtual()
	realm, _ := NewRealm(clock, time.Hour)
	good, err := realm.Member("m")
	if err != nil || good == nil {
		t.Fatal(err)
	}
	cases := []Security{
		{},
		{Clock: clock},
		{Clock: clock, AuthorityPub: realm.AuthorityKey.Public},
		{Clock: clock, AuthorityPub: realm.AuthorityKey.Public, CertName: "x"},
	}
	for i, s := range cases {
		if _, err := NewSecurity(s); err == nil {
			t.Errorf("case %d: invalid security accepted", i)
		}
	}
	if _, err := NewRealm(nil, time.Hour); err == nil {
		t.Error("NewRealm with nil clock accepted")
	}
	if r, err := NewRealm(clock, 0); err != nil || r.TTL <= 0 {
		t.Error("NewRealm default TTL not applied")
	}
}

func TestAntiEntropyRepairsLossAutomatically(t *testing.T) {
	// Bimodal-multicast behaviour (§5): with background anti-entropy on,
	// items missed by the best-effort multicast are recovered without
	// any explicit recovery call, even under heavy loss.
	c, err := NewCluster(ClusterConfig{
		N: 12, Branching: 4, Seed: 83,
		Link: sim.LinkModel{
			LatencyMin: 5 * time.Millisecond,
			LatencyMax: 50 * time.Millisecond,
			LossRate:   0.10, // brutal
		},
		Customize: func(i int, cfg *Config) {
			cfg.AntiEntropyEvery = 2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.Subscribe("tech/linux")
	}
	c.RunRounds(8)

	for i := 0; i < 5; i++ {
		it := testItem(fmt.Sprintf("ae-%d", i), "tech/linux")
		it.Published = c.Eng.Now()
		if err := c.Nodes[0].PublishItem(it, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	// Let multicast and several anti-entropy rounds run.
	c.RunRounds(12)

	for i, n := range c.Nodes {
		if n.Delivered() != 5 {
			t.Errorf("node %d delivered %d of 5 despite anti-entropy", i, n.Delivered())
		}
	}
}

func TestAntiEntropyDisabledByDefault(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 2, Branching: 2, Seed: 85})
	if err != nil {
		t.Fatal(err)
	}
	c.RunRounds(4)
	// No state-transfer traffic should have occurred.
	sent, _, _ := c.Net.Totals()
	if sent == 0 {
		t.Fatal("no traffic at all?")
	}
	for _, n := range c.Nodes {
		if st := n.Cache().Stats(); st.Puts != 0 {
			t.Fatal("cache activity without anti-entropy or publishes")
		}
	}
}

func TestMultiHashBloomGeometryEndToEnd(t *testing.T) {
	// The whole system runs on a shared non-default geometry (4096 bits,
	// 4 hashes): positions, aggregation and filtering must all agree.
	geo := pubsub.Geometry{Bits: 4096, Hashes: 4}
	delivered := 0
	c, err := NewCluster(ClusterConfig{
		N: 8, Branching: 4, Seed: 91,
		Customize: func(i int, cfg *Config) {
			cfg.Geometry = geo
			if i == 5 {
				cfg.OnItem = func(*news.Item, *wire.ItemEnvelope) { delivered++ }
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Nodes[5].Subscribe("world/asia")
	c.RunRounds(8)

	if err := c.Nodes[0].PublishItem(testItem("geo", "world/asia"), "", ""); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	// Non-subscribers saw no delivery.
	for i, n := range c.Nodes {
		if i != 5 && n.Delivered() != 0 {
			t.Fatalf("node %d received without subscription", i)
		}
	}
}

// TestClusterPredicateMode runs the §7 target design end to end: typed
// query subscriptions compile to Bloom signatures, aggregate with zone
// subgrouping, and the forwarding plane prunes items whose metadata the
// predicates cannot match — before the leaf's exact check.
func TestClusterPredicateMode(t *testing.T) {
	delivered := make(map[int][]string)
	c, err := NewCluster(ClusterConfig{
		N:         12,
		Branching: 4,
		Seed:      42,
		Customize: func(i int, cfg *Config) {
			cfg.Mode = pubsub.ModePredicate
			cfg.Geometry = pubsub.Geometry{Bits: 2048, Hashes: 4}
			cfg.OnItem = func(it *news.Item, env *wire.ItemEnvelope) {
				delivered[i] = append(delivered[i], it.Key())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Even nodes want urgent linux news via a typed query; node 1 uses a
	// plain subject subscription (still supported in predicate mode); the
	// rest subscribe to an unrelated subject.
	for i, n := range c.Nodes {
		switch {
		case i%2 == 0:
			if _, err := n.SubscribeQuery("subjects = 'tech/linux' AND urgency >= 6"); err != nil {
				t.Fatal(err)
			}
		case i == 1:
			if err := n.Subscribe("tech/linux"); err != nil {
				t.Fatal(err)
			}
		default:
			if err := n.Subscribe("sports/soccer"); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.RunRounds(10)

	hot := testItem("hot", "tech/linux")
	hot.Urgency = 7
	calm := testItem("calm", "tech/linux")
	calm.Urgency = 2
	if err := c.Nodes[0].PublishItem(hot, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[0].PublishItem(calm, "", ""); err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Second)

	for i := range c.Nodes {
		var want []string
		switch {
		case i%2 == 0:
			want = []string{"slashdot/hot#0"}
		case i == 1:
			want = []string{"slashdot/hot#0", "slashdot/calm#0"}
		}
		if len(delivered[i]) != len(want) {
			t.Errorf("node %d delivered %v, want %v", i, delivered[i], want)
			continue
		}
		got := make(map[string]bool, len(delivered[i]))
		for _, k := range delivered[i] {
			got[k] = true
		}
		for _, k := range want {
			if !got[k] {
				t.Errorf("node %d missing %s (got %v)", i, k, delivered[i])
			}
		}
	}

	// The routing plane should have recorded forwards and subgroup tests,
	// and some zone rows should advertise clustered subgroup filters.
	var forwards, subTests int64
	filters := 0
	for _, n := range c.Nodes {
		rs := n.RoutingStats()
		forwards += rs.Forwards
		subTests += rs.SubgroupTests
		filters += n.SubgroupFilters()
	}
	if forwards == 0 || subTests == 0 || filters == 0 {
		t.Errorf("routing telemetry empty: forwards=%d subgroupTests=%d filters=%d",
			forwards, subTests, filters)
	}
}
