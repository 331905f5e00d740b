package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/bloom"
	"newswire/internal/core"
	"newswire/internal/news"
	"newswire/internal/pubsub"
	"newswire/internal/wire"
	"newswire/internal/workload"
)

// sim-gossip: simulated nodes on the parallel executor, ModeBloom, no
// publishing. Each round 1% of nodes replace their subscriptions: the
// writes to the replicated attribute table that the other workloads only
// read. Chosen because it loads the control plane (astrolabe, sqlagg,
// bloom, sim) while multicast, transport and news stay idle.
const (
	gossipNodes        = 2048
	gossipBranching    = 32
	gossipChurnPercent = 1
	gossipSubjects     = 3
	// gossipObserver is the fixed node whose root table must show each
	// subscription change.
	gossipObserver = 1
	// simSetupRounds bounds how long a simulated set-up may gossip
	// before its probe must have reached everyone.
	simSetupRounds = 60
	// simGossipInterval is the simulated clusters' gossip round, the
	// core.ClusterConfig default.
	simGossipInterval = 2 * time.Second
)

type gossipRun struct {
	c    *core.Cluster
	rng  *rand.Rand
	subs []map[string]bool // set-up subscriptions
}

func startGossip(seed int64, n int) (*gossipRun, error) {
	c, err := core.NewCluster(core.ClusterConfig{
		N: n, Branching: gossipBranching, Seed: seed, Workers: runtime.GOMAXPROCS(0),
		GossipInterval: simGossipInterval,
		// Reliable forwarding only matters to the set-up probe, which must
		// reach every node across the lossy default link.
		Customize: func(i int, cfg *core.Config) { cfg.AckTimeout = publishAck },
	})
	if err != nil {
		return nil, err
	}
	g := &gossipRun{c: c, rng: rand.New(rand.NewSource(seed))}
	for _, node := range c.Nodes {
		subjects := workload.SampleSubscriptions(g.rng, news.StandardSubjects, gossipSubjects, 1.0)
		if err := node.Subscribe(subjects...); err != nil {
			return nil, err
		}
		g.subs = append(g.subs, subjectSet(subjects))
	}
	matching := func(it *news.Item) []int {
		var out []int
		for i := 1; i < len(g.subs); i++ {
			if matchesAny(it.Subjects, g.subs[i]) {
				out = append(out, i)
			}
		}
		return out
	}
	if err := awaitSimProbe(c, 0, matching); err != nil {
		return nil, err
	}
	return g, nil
}

// change is one subscription replacement awaiting visibility at the
// observer.
type change struct {
	node int
	top  string // the changed node's top-level zone, a row of the root table
	env  wire.ItemEnvelope
	at   time.Time
}

// topZone returns the first zone below the root on a leaf path.
func topZone(path string) string {
	p := strings.TrimPrefix(path, "/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return p
}

// visible reports whether the observer's root table row for the change's
// top-level zone admits an item on the change's marker subject.
func visible(filter func(string, astrolabe.Row, *wire.ItemEnvelope) bool, rows []astrolabe.Row, ch *change) bool {
	for _, r := range rows {
		if r.Name == ch.top {
			return filter(astrolabe.RootZone, r, &ch.env)
		}
	}
	return false
}

// markerEnv is the routing part of an envelope on one subject, as
// pubsub.EncodeItem builds it in ModeBloom. It carries no payload, so
// testing visibility encodes no NITF.
func markerEnv(subject string) wire.ItemEnvelope {
	geo := pubsub.DefaultGeometry
	return wire.ItemEnvelope{Subjects: []string{subject},
		SubjectBits: bloom.PositionsFor(subject, geo.Bits, geo.Hashes)}
}

// gossipCheckEvery is how often, in virtual time, the observer's root
// table is checked for pending changes; it sets the latency resolution.
const gossipCheckEvery = 100 * time.Millisecond

// gossipTracker schedules one round's subscription changes and visibility
// checks as engine events, which the parallel executor runs serially.
// Changes land at random instants inside the round so the measured
// latency is not quantised to whole rounds.
type gossipTracker struct {
	g       *gossipRun
	filter  func(string, astrolabe.Row, *wire.ItemEnvelope) bool
	pending map[int]*change
	lat     []float64
	made    int
	err     error
}

// scheduleRound churns 1% of the nodes that have no change pending at
// random instants of the coming round and checks the observer every
// gossipCheckEvery.
func (t *gossipTracker) scheduleRound(round int, interval time.Duration) {
	c := t.g.c
	start := c.Eng.Now()
	count := len(c.Nodes) * gossipChurnPercent / 100
	if count < 1 {
		count = 1
	}
	chosen := map[int]bool{}
	for len(chosen) < count {
		i := t.g.rng.Intn(len(c.Nodes))
		if i == gossipObserver || t.pending[i] != nil || chosen[i] {
			continue
		}
		chosen[i] = true
		at := start.Add(time.Duration(t.g.rng.Int63n(int64(interval))))
		subjects := workload.SampleSubscriptions(t.g.rng, news.StandardSubjects, gossipSubjects, 1.0)
		ch := &change{node: i, top: topZone(c.Nodes[i].ZonePath()), at: at}
		t.pending[i] = ch
		c.Eng.At(at, func() { t.apply(round, ch, subjects) })
	}
	for d := gossipCheckEvery; d <= interval; d += gossipCheckEvery {
		at := start.Add(d)
		c.Eng.At(at, func() { t.settle(at) })
	}
}

// apply replaces one node's subscriptions. The new set carries a fresh
// marker subject, drawn until the observer's root row does not already
// admit it, so the change is one the observer can see arrive.
func (t *gossipTracker) apply(round int, ch *change, subjects []string) {
	node := t.g.c.Nodes[ch.node]
	rows, _ := t.g.c.Nodes[gossipObserver].Agent().Table(astrolabe.RootZone)
	for k := 0; ; k++ {
		ch.env = markerEnv(fmt.Sprintf("churn/%d/%d/%d", round, ch.node, k))
		if !visible(t.filter, rows, ch) {
			break
		}
	}
	node.Unsubscribe(node.Subjects()...)
	if err := node.Subscribe(append(subjects, ch.env.Subjects[0])...); err != nil && t.err == nil {
		t.err = err
	}
	t.made++
}

// settle moves every applied change the observer can now see into lat.
func (t *gossipTracker) settle(now time.Time) {
	rows, _ := t.g.c.Nodes[gossipObserver].Agent().Table(astrolabe.RootZone)
	for i, ch := range t.pending {
		if ch.env.Subjects != nil && visible(t.filter, rows, ch) {
			t.lat = append(t.lat, float64(now.Sub(ch.at).Nanoseconds())/1e6)
			delete(t.pending, i)
		}
	}
}

// runGossip is the sim-gossip workload.
func runGossip(cfg runConfig) (*result, error) {
	n := gossipNodes
	if cfg.nodes > 0 {
		n = cfg.nodes
	}
	res := newResult()
	var g *gossipRun
	var setups []float64
	for s := 0; s < cfg.setups; s++ {
		g = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		g, err = startGossip(cfg.seed+int64(s)*7777, n)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.setE2E("setup_s", median(setups), len(setups), "set-ups")

	c := g.c
	tr := &gossipTracker{g: g, pending: map[int]*change{},
		filter: pubsub.ForwardFilter(pubsub.ModeBloom, pubsub.DefaultGeometry, nil)}
	before := snapshotNodes(c.Nodes)
	bytes0, _ := c.Net.BytesTotals()
	events0 := c.Eng.Stats().Fired
	ph, err := startPhase(cfg.traced)
	if err != nil {
		return nil, err
	}
	rounds := 0
	var clock roundClock
	for time.Since(ph.start) < time.Duration(cfg.seconds)*time.Second {
		tr.scheduleRound(rounds, simGossipInterval)
		clock.start()
		c.RunRounds(1)
		clock.stop(float64(n))
		rounds++
	}
	if err := ph.end(); err != nil {
		return nil, err
	}
	bytes1, _ := c.Net.BytesTotals()
	events1 := c.Eng.Stats().Fired
	after := snapshotNodes(c.Nodes)
	// Let the last changes arrive (untimed) so each one is judged.
	for extra := 0; len(tr.pending) > 0 && extra < simSetupRounds; extra++ {
		now := c.Eng.Now()
		for d := gossipCheckEvery; d <= simGossipInterval; d += gossipCheckEvery {
			at := now.Add(d)
			c.Eng.At(at, func() { tr.settle(at) })
		}
		c.RunRounds(1)
	}
	if tr.err != nil {
		return nil, tr.err
	}
	lat, made, pending := tr.lat, tr.made, tr.pending
	sort.Float64s(lat)
	nodeRounds := int64(n) * int64(rounds)
	units := float64(nodeRounds)
	res.setE2E("latency_p50_ms", quantile(lat, 0.50), len(lat), "subscription changes, virtual ms to visible at observer")
	res.notes = append(res.notes, fmt.Sprintf("latency_p99_ms = %.4f ms (n=%d subscription changes)", quantile(lat, 0.99), len(lat)))
	res.setE2E("throughput_per_s", clock.perSecond(), rounds, "rounds, node-rounds/s of the median round")
	res.setE2E("cpu_us_per_unit", clock.cpuPerUnit(), rounds, "rounds, CPU per node-round of the median round")
	ratio := float64(len(lat)) / float64(made)
	res.setE2E("delivery_ratio", ratio, made, "subscription changes made")
	res.setE2E("heap_kb_per_node", float64(ph.Heap)/1024/float64(n), 1, "heap reachable at phase end")
	res.setE2E("bytes_per_unit", float64(bytes1-bytes0)/units, int(nodeRounds), "node-rounds, simulated bytes")
	res.notes = append(res.notes, fmt.Sprintf("round_ms = %.2f median, %.2f mean over %d rounds; whole-phase cpu_us_per_unit = %.2f",
		float64(n)*1e3/clock.perSecond(), ph.Wall.Seconds()*1e3/float64(rounds), rounds, float64(ph.CPU.Microseconds())/units))
	res.attempted = int64(made)
	res.failed = int64(len(pending))
	res.correct = len(pending) == 0
	if cfg.traced {
		res.setSelfTimes(ph, units)
		sumNodeStats(after).minus(sumNodeStats(before)).fill(res, 0, 0, nodeRounds)
		res.setLayer("sim.events_per_round", float64(events1-events0)/float64(rounds))
	}
	return res, nil
}
