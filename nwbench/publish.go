package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"newswire/internal/core"
	"newswire/internal/news"
	"newswire/internal/pubsub"
	"newswire/internal/wire"
	"newswire/internal/workload"
)

// sim-publish: simulated nodes on the default WAN link model (20–180 ms,
// 1% loss), ModePredicate subscriptions "subjects IN (…) AND urgency >=
// k", reliable forwarding. One publisher, no subscription churn. Chosen
// because it loads the routing plane (multicast, pubsub, query, cache,
// retransmit) while transport, wire and news stay idle: deliveries are
// read from the node caches, so no NITF payload is decoded.
const (
	publishNodes     = 1024
	publishBranching = 16
	publishSubjects  = 3
	publishRepCount  = 2
	publishAck       = time.Second
	// publishPerRound items are published each gossip round.
	publishPerRound = 64
	// publishDrainRounds lets retransmissions (1s, 2s, 4s backoff)
	// finish before the phase ends.
	publishDrainRounds = 6
)

type publishRun struct {
	c       *core.Cluster
	urgency []int
	subs    []map[string]bool
}

func startPublish(seed int64, n int) (*publishRun, error) {
	c, err := core.NewCluster(core.ClusterConfig{
		N: n, Branching: publishBranching, Seed: seed, Workers: runtime.GOMAXPROCS(0),
		Customize: func(i int, cfg *core.Config) {
			cfg.Mode = pubsub.ModePredicate
			cfg.RepCount = publishRepCount
			cfg.AckTimeout = publishAck
		},
	})
	if err != nil {
		return nil, err
	}
	p := &publishRun{c: c, urgency: make([]int, n), subs: make([]map[string]bool, n)}
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i < n; i++ {
		subjects := workload.SampleSubscriptions(rng, news.StandardSubjects, publishSubjects, 1.0)
		p.urgency[i] = 2 + rng.Intn(6)
		quoted := make([]string, len(subjects))
		for j, s := range subjects {
			quoted[j] = "'" + s + "'"
		}
		p.subs[i] = subjectSet(subjects)
		q := fmt.Sprintf("subjects IN (%s) AND urgency >= %d", strings.Join(quoted, ", "), p.urgency[i])
		if _, err := c.Nodes[i].SubscribeQuery(q); err != nil {
			return nil, err
		}
	}
	if err := awaitSimProbe(c, 0, p.matching); err != nil {
		return nil, err
	}
	return p, nil
}

// matching lists the subscribers whose predicate the item satisfies.
func (p *publishRun) matching(it *news.Item) []int {
	var out []int
	for i := 1; i < len(p.subs); i++ {
		if it.Urgency >= p.urgency[i] && matchesAny(it.Subjects, p.subs[i]) {
			out = append(out, i)
		}
	}
	return out
}

type published struct {
	it    *news.Item
	subs  []int
	first *wire.ItemEnvelope // first delivered copy, set by collect
}

// collect reads one batch's deliveries back from the node caches into the
// oracle. Every copy must carry the first copy's payload bytes.
func (p *publishRun) collect(or *oracle, batch []published) {
	at := p.c.Eng.Now()
	for k := range batch {
		pub := &batch[k]
		key := pub.it.Key()
		var want uint64
		copies := map[int]uint64{}
		for i := 1; i < len(p.c.Nodes); i++ {
			env, ok := p.c.Nodes[i].Cache().Get(key)
			if !ok {
				continue
			}
			d := bytesDigest(env.Payload)
			if pub.first == nil {
				pub.first, want = &env, d
			}
			copies[i] = d
		}
		or.expect(key, want, pub.subs, at, phaseSteady)
		for i, d := range copies {
			or.deliver(key, i, d, at)
		}
	}
}

// runPublish is the sim-publish workload.
func runPublish(cfg runConfig) (*result, error) {
	n := publishNodes
	if cfg.nodes > 0 {
		n = cfg.nodes
	}
	res := newResult()
	var p *publishRun
	var setups []float64
	for s := 0; s < cfg.setups; s++ {
		p = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		p, err = startPublish(cfg.seed+int64(s)*7777, n)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.setE2E("setup_s", median(setups), len(setups), "set-ups")

	c := p.c
	gen, err := workload.NewArticleGen(workload.WireServiceProfile("wire"), rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return nil, err
	}
	or := newOracle()
	before := snapshotNodes(c.Nodes)
	delivered0 := make([]int64, n)
	for i, node := range c.Nodes {
		delivered0[i] = node.Delivered()
		node.DeliveryLatency().Reset()
	}
	bytes0, _ := c.Net.BytesTotals()
	events0 := c.Eng.Stats().Fired
	var publishTimer layerTimer
	ph, err := startPhase(cfg.traced)
	if err != nil {
		return nil, err
	}
	var batches [][]published
	var publishErrs []*news.Item
	rounds := 0
	verified := 0
	var clock roundClock
	for time.Since(ph.start) < time.Duration(cfg.seconds)*time.Second {
		var batch []published
		ph.exclude(func() {
			now := c.Eng.Now()
			for b := 0; b < publishPerRound; b++ {
				it := gen.Next(now)
				batch = append(batch, published{it: it, subs: p.matching(it)})
			}
		})
		clock.start()
		sent := batch[:0]
		for _, pub := range batch {
			t0 := time.Now()
			if err := c.Nodes[0].PublishItem(pub.it, "", ""); err != nil {
				publishErrs = append(publishErrs, pub.it)
				continue
			}
			publishTimer.add(time.Since(t0))
			sent = append(sent, pub)
		}
		batches = append(batches, sent)
		c.RunRounds(1)
		clock.stop(float64(len(sent)))
		rounds++
		if len(batches)-verified > publishDrainRounds {
			ph.exclude(func() { p.collect(or, batches[verified]) })
			verified++
		}
	}
	c.RunRounds(publishDrainRounds)
	rounds += publishDrainRounds
	ph.exclude(func() {
		for ; verified < len(batches); verified++ {
			p.collect(or, batches[verified])
		}
	})
	if err := ph.end(); err != nil {
		return nil, err
	}
	bytes1, _ := c.Net.BytesTotals()
	events1 := c.Eng.Stats().Fired
	after := snapshotNodes(c.Nodes)

	for _, it := range publishErrs {
		or.expect(it.Key(), 0, nil, c.Eng.Now(), phaseSteady)
		or.publishFailed(it.Key())
	}
	// Decode one delivered copy of each item, outside the timed phase, and
	// compare it with what was published; collect already required every
	// other copy to carry the same payload bytes.
	var items int
	for _, batch := range batches {
		items += len(batch)
		for _, pub := range batch {
			if pub.first == nil {
				continue
			}
			got, err := pubsub.DecodeItem(pub.first)
			if err != nil || itemDigest(got) != itemDigest(pub.it) {
				or.mu.Lock()
				or.tallyLocked(phaseSteady).Corrupt++
				or.mu.Unlock()
			}
		}
	}
	st := or.tally(phaseSteady)
	// Node.Delivered counts every item surfaced to the application; more
	// than the oracle accepted means a duplicate or a stray delivery.
	var surfaced int64
	for i := 1; i < n; i++ {
		surfaced += c.Nodes[i].Delivered() - delivered0[i]
	}
	extra := surfaced - st.Delivered
	if extra < 0 {
		extra = 0
	}

	var lat []float64
	for i := 1; i < n; i++ {
		h := c.Nodes[i].DeliveryLatency()
		cnt := h.Count()
		for k := 0; k < cnt; k++ {
			lat = append(lat, h.Quantile((float64(k)+0.5)/float64(cnt))*1e3)
		}
	}
	sort.Float64s(lat)
	units := float64(items)
	if units == 0 {
		units = 1
	}
	res.setE2E("latency_p50_ms", quantile(lat, 0.50), len(lat), "deliveries, virtual ms")
	res.notes = append(res.notes, fmt.Sprintf("latency_p99_ms = %.4f ms (n=%d deliveries, virtual time)", quantile(lat, 0.99), len(lat)))
	res.setE2E("throughput_per_s", clock.perSecond(), len(clock.wall), "publishing rounds, items/s of the median round")
	res.setE2E("cpu_us_per_unit", clock.cpuPerUnit(), len(clock.cpu), "publishing rounds, CPU per item of the median round")
	res.setE2E("delivery_ratio", st.Ratio(), int(st.Expected), "expected pairs")
	res.setE2E("heap_kb_per_node", float64(ph.Heap)/1024/float64(n), 1, "heap reachable at phase end")
	res.setE2E("bytes_per_unit", float64(bytes1-bytes0)/units, items, "items, simulated bytes")
	res.notes = append(res.notes, fmt.Sprintf("rounds=%d items=%d deliveries=%d; whole phase incl. %d drain rounds: %.2f items/s, cpu_us_per_unit = %.1f",
		rounds, items, st.Delivered, publishDrainRounds, float64(items)/ph.Wall.Seconds(), float64(ph.CPU.Microseconds())/units))
	res.attempted = st.Expected + st.PublishErrors
	res.failed = st.Failures() + st.Missing() + extra
	res.correct = res.failed == 0 && st.Ratio() == 1
	if cfg.traced {
		res.setSelfTimes(ph, units)
		nodeRounds := int64(n) * int64(rounds)
		sumNodeStats(after).minus(sumNodeStats(before)).fill(res, int64(items), float64(st.Delivered), nodeRounds)
		res.setLayer("sim.events_per_round", float64(events1-events0)/float64(rounds))
		res.setLayer("core.publish_us", publishTimer.meanUS())
	}
	return res, nil
}
