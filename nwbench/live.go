package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"newswire/internal/core"
	"newswire/internal/news"
	"newswire/internal/pubsub"
	"newswire/internal/trace"
	"newswire/internal/transport"
	"newswire/internal/vtime"
	"newswire/internal/wire"
	"newswire/internal/workload"
)

// live-fanout: 16 nodes in this process on loopback TCP, four leaf zones
// of four, ModeBloom. Node 0 publishes; nodes 1..15 subscribe. Chosen
// because it is the only workload through wire, transport and news
// decode, while gossip is nearly idle.
const (
	liveNodes    = 16
	liveZoneSize = 4
	// liveGossipInterval is shorter than a deployment's 2s so set-up
	// converges in about a second; gossip stays a small share of CPU.
	liveGossipInterval = 250 * time.Millisecond
	liveSubjectsPerSub = 4
	// liveSteadyRate is the open-loop rate of the steady phase, about
	// half the knee measured on a 2-core host.
	liveSteadyRate = 400.0
	// liveP50Limit is the latency limit a knee step must meet. It bounds
	// the median, not p99: on a shared 2-core host a single scheduling
	// stall moves a one-second step's p99 from 20ms to over 100ms at the
	// same rate, while the median only climbs once a backlog builds.
	liveP50Limit = 20 * time.Millisecond
	// liveWindow splits the steady phase; latency percentiles are the
	// median over windows, so one stalled window does not set them.
	liveWindow = time.Second
	// liveStableFor is how long probe batches must keep reaching every
	// subscriber before live set-up ends.
	liveStableFor = 2 * liveGossipInterval
	// liveLadderStep is the ratio between successive knee-search rates.
	liveLadderStep = 1.2
	// liveSteadyShare of a run is the steady phase, the rest the knee
	// search; liveStepShare of a run is one knee step.
	liveSteadyShare = 0.45
	liveStepShare   = 0.0375
	// The defaults newswire.StartLive applies to a live node.
	liveTraceCap       = 4096
	liveLatencySamples = 8192
	liveHealthEvery    = 5
)

// Oracle phases of the live workload: set-up probes, the steady phase and
// then one phase per knee step.
const (
	phaseProbe  = 0
	phaseSteady = 1 // first steady window
	phaseKnee0  = 1000
)

type liveCluster struct {
	nodes  []*core.Node
	trs    []*transport.TCP
	subs   []map[string]bool // subscriber subjects; nil for the publisher
	or     *oracle
	lt     *liveTrace // nil when untraced
	ticks  atomic.Int64
	stop   chan struct{}
	wg     sync.WaitGroup
	probes int
}

// liveTrace is the traced run's instrumentation around the calls into
// each layer: the inbound handler, the transport and the publisher.
type liveTrace struct {
	encode, enqueue, publish  layerTimer
	hMulticast, hGossip, hAck layerTimer

	mu                 sync.Mutex
	capture            bool
	frameN, frameBytes int64
	frames             [][]byte
	envs               []wire.ItemEnvelope
}

const liveCaptureMax = 1024

func (lt *liveTrace) reset() {
	for _, t := range []*layerTimer{&lt.encode, &lt.enqueue, &lt.publish,
		&lt.hMulticast, &lt.hGossip, &lt.hAck} {
		t.mu.Lock()
		t.n, t.total = 0, 0
		t.mu.Unlock()
	}
	lt.mu.Lock()
	lt.capture = true
	lt.frameN, lt.frameBytes = 0, 0
	lt.frames, lt.envs = nil, nil
	lt.mu.Unlock()
}

func (lt *liveTrace) handle(n *core.Node, m *wire.Message) {
	t0 := time.Now()
	n.HandleMessage(m)
	d := time.Since(t0)
	switch m.Kind {
	case wire.KindMulticast:
		lt.hMulticast.add(d)
	case wire.KindMulticastAck:
		lt.hAck.add(d)
	case wire.KindGossip, wire.KindGossipReply, wire.KindGossipDigest, wire.KindGossipDelta:
		lt.hGossip.add(d)
	}
}

// tracedTCP times the node's calls into the transport. Embedding the
// TCP transport keeps FrameSender, StatsSource, MetricsFiller and
// ClockOffsets, so the node takes the same paths as without the wrapper.
type tracedTCP struct {
	*transport.TCP
	lt *liveTrace
}

// Send splits into NewFrame and SendFrame exactly as transport.TCP.Send
// does, so both halves are timed.
func (t tracedTCP) Send(to string, msg *wire.Message) error {
	f, err := t.NewFrame(msg)
	if err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	return t.SendFrame(to, f)
}

func (t tracedTCP) NewFrame(msg *wire.Message) (wire.Frame, error) {
	t0 := time.Now()
	f, err := t.TCP.NewFrame(msg)
	t.lt.encode.add(time.Since(t0))
	if err == nil {
		t.lt.mu.Lock()
		t.lt.frameN++
		t.lt.frameBytes += int64(f.Len())
		if t.lt.capture && len(t.lt.frames) < liveCaptureMax {
			t.lt.frames = append(t.lt.frames, append([]byte(nil), f.Payload()...))
		}
		t.lt.mu.Unlock()
	}
	return f, err
}

func (t tracedTCP) SendFrame(to string, f wire.Frame) error {
	t0 := time.Now()
	err := t.TCP.SendFrame(to, f)
	t.lt.enqueue.add(time.Since(t0))
	return err
}

func liveHeapInUse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// startLive builds the cluster and returns once a probe item has reached
// every subscriber.
func startLive(seed int64, traced bool) (*liveCluster, error) {
	lc := &liveCluster{or: newOracle(), stop: make(chan struct{})}
	if traced {
		lc.lt = &liveTrace{}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < liveNodes; i++ {
		if err := lc.addNode(i, seed); err != nil {
			lc.close()
			return nil, err
		}
		if i == 0 {
			lc.subs = append(lc.subs, nil)
			continue
		}
		subjects := workload.SampleSubscriptions(rng, news.StandardSubjects, liveSubjectsPerSub, 1.0)
		if err := lc.nodes[i].Subscribe(subjects...); err != nil {
			lc.close()
			return nil, err
		}
		lc.subs = append(lc.subs, subjectSet(subjects))
	}
	for _, n := range lc.nodes {
		n := n
		// Nodes of a deployment start at different moments, so their
		// gossip ticks are out of phase; in lockstep, set-up time would
		// move in whole rounds.
		offset := time.Duration(rng.Int63n(int64(liveGossipInterval)))
		lc.wg.Add(1)
		go func() {
			defer lc.wg.Done()
			select {
			case <-time.After(offset):
			case <-lc.stop:
				return
			}
			t := time.NewTicker(liveGossipInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					n.Tick()
					lc.ticks.Add(1)
				case <-lc.stop:
					return
				}
			}
		}()
	}
	// Each node introduces itself to the publisher and to a member of
	// its own leaf zone: with only one seed node, members of sibling
	// zones can stay out of reach.
	for i := 1; i < liveNodes; i++ {
		mate := i - i%liveZoneSize
		if mate == i {
			mate = i + 1
		}
		lc.nodes[i].IntroduceTo(lc.nodes[0].Addr(), lc.nodes[mate].Addr())
	}
	if err := lc.awaitProbe(60 * time.Second); err != nil {
		lc.close()
		return nil, err
	}
	return lc, nil
}

func (lc *liveCluster) addNode(i int, seed int64) error {
	var node *core.Node
	handler := func(m *wire.Message) {
		if node == nil {
			return
		}
		if lc.lt != nil {
			lc.lt.handle(node, m)
			return
		}
		node.HandleMessage(m)
	}
	tr, err := transport.ListenTCPWith("127.0.0.1:0", handler, transport.TCPOptions{})
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	var nodeTr transport.Transport = tr
	if lc.lt != nil {
		nodeTr = tracedTCP{TCP: tr, lt: lc.lt}
	}
	idx := i
	n, err := core.NewNode(core.Config{
		Name:             fmt.Sprintf("node-%d", i),
		ZonePath:         core.ZonePathFor(i, liveNodes, liveZoneSize),
		Transport:        nodeTr,
		Clock:            vtime.Real{},
		Rand:             rand.New(rand.NewSource(seed*1000 + int64(i))),
		GossipInterval:   liveGossipInterval,
		Tracer:           trace.NewRing(liveTraceCap),
		LatencyReservoir: liveLatencySamples,
		HealthEvery:      liveHealthEvery,
		HealthHeapBytes:  liveHeapInUse,
		OnItem: func(it *news.Item, env *wire.ItemEnvelope) {
			lc.onItem(idx, it, env)
		},
	})
	if err != nil {
		tr.Close()
		return err
	}
	node = n
	lc.nodes = append(lc.nodes, n)
	lc.trs = append(lc.trs, tr)
	return nil
}

func (lc *liveCluster) onItem(sub int, it *news.Item, env *wire.ItemEnvelope) {
	lc.or.deliver(env.Key(), sub, itemDigest(it), time.Now())
	if lt := lc.lt; lt != nil {
		lt.mu.Lock()
		if lt.capture && len(lt.envs) < liveCaptureMax {
			lt.envs = append(lt.envs, *env)
		}
		lt.mu.Unlock()
	}
}

func (lc *liveCluster) close() {
	select {
	case <-lc.stop:
	default:
		close(lc.stop)
	}
	lc.wg.Wait()
	for _, tr := range lc.trs {
		tr.Close()
	}
}

// awaitProbe waits for complete zone tables, then publishes probe batches
// until one batch reaches every subscriber of each subject.
func (lc *liveCluster) awaitProbe(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	sizes := tableSizes(lc.nodes)
	for !tablesComplete(lc.nodes, sizes) {
		if time.Now().After(deadline) {
			return fmt.Errorf("live set-up: zone tables incomplete after %v", limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// One batch can pass while a zone representative that the publisher
	// has not picked yet still lacks a member; batches must keep passing
	// for liveStableFor before set-up counts as done.
	var stableSince time.Time
	for time.Now().Before(deadline) {
		lc.probes++
		probes := probeBatch(lc.probes, time.Now())
		for _, it := range probes {
			lc.or.expect(it.Key(), itemDigest(it), lc.matching(it), it.Published, phaseProbe)
			if err := lc.nodes[0].PublishItem(it, "", ""); err != nil {
				return fmt.Errorf("publish probe: %w", err)
			}
		}
		done := false
		for wait := time.Now().Add(2 * liveGossipInterval); !done && time.Now().Before(wait); {
			time.Sleep(5 * time.Millisecond)
			done = lc.probesDone(probes)
		}
		switch {
		case !done:
			stableSince = time.Time{}
		case stableSince.IsZero():
			stableSince = time.Now()
		case time.Since(stableSince) >= liveStableFor:
			return nil
		}
		time.Sleep(liveGossipInterval / 5)
	}
	return fmt.Errorf("live set-up: probe batches did not reach every subscriber for %v within %v", liveStableFor, limit)
}

func (lc *liveCluster) probesDone(probes []*news.Item) bool {
	lc.or.mu.Lock()
	defer lc.or.mu.Unlock()
	for _, it := range probes {
		for _, got := range lc.or.items[it.Key()].subs {
			if !got {
				return false
			}
		}
	}
	return true
}

// matching lists the subscribers whose subjects the item carries.
func (lc *liveCluster) matching(it *news.Item) []int {
	var out []int
	for i, set := range lc.subs {
		if set != nil && matchesAny(it.Subjects, set) {
			out = append(out, i)
		}
	}
	return out
}

// drive publishes open-loop at rate for dur: item k is due at
// start+k/rate and is timed from then, however late the generator runs.
// It returns the generator's lateness per item in ms.
func (lc *liveCluster) drive(gen *workload.ArticleGen, rate float64, dur time.Duration, phase int) []float64 {
	start := time.Now()
	count := int(rate * dur.Seconds())
	lags := make([]float64, 0, count)
	for k := 0; k < count; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		it := gen.Next(due)
		key := it.Key()
		lc.or.expect(key, itemDigest(it), lc.matching(it), due, phase)
		lags = append(lags, float64(time.Since(due).Nanoseconds())/1e6)
		var t0 time.Time
		if lc.lt != nil {
			t0 = time.Now()
		}
		if err := lc.nodes[0].PublishItem(it, "", ""); err != nil {
			lc.or.publishFailed(key)
		}
		if lc.lt != nil {
			lc.lt.publish.add(time.Since(t0))
		}
	}
	return lags
}

// drain waits until the phases have all their deliveries, or until
// limit passes, or until deliveries stop arriving for a while.
func (lc *liveCluster) drain(limit time.Duration, phases ...int) {
	deadline := time.Now().Add(limit)
	last, lastChange := int64(-1), time.Now()
	for time.Now().Before(deadline) {
		delivered, expected := lc.or.counts(phases...)
		if delivered >= expected {
			return
		}
		if delivered != last {
			last, lastChange = delivered, time.Now()
		} else if time.Since(lastChange) > 300*time.Millisecond {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (lc *liveCluster) transportDrops() int64 {
	st := snapshotTransports(lc.trs)
	return st.QueueFullDrops + st.ConnDrops
}

// runLive is the live-fanout workload.
func runLive(cfg runConfig) (*result, error) {
	res := newResult()
	var lc *liveCluster
	var setups []float64
	for s := 0; s < cfg.setups; s++ {
		if lc != nil {
			lc.close()
			lc = nil
			runtime.GC()
		}
		t0 := time.Now()
		c, err := startLive(cfg.seed+int64(s)*7777, cfg.traced)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		lc = c
	}
	defer lc.close()
	res.setE2E("setup_s", median(setups), len(setups), "set-ups")

	gen, err := workload.NewArticleGen(workload.WireServiceProfile("wire"),
		rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return nil, err
	}

	// Steady phase.
	steadyDur := time.Duration(float64(cfg.seconds) * liveSteadyShare * float64(time.Second))
	before := snapshotNodes(lc.nodes)
	trBefore := snapshotTransports(lc.trs)
	ticks0 := lc.ticks.Load()
	if lc.lt != nil {
		lc.lt.reset()
	}
	ph, err := startPhase(cfg.traced)
	if err != nil {
		return nil, err
	}
	windows := int(steadyDur / liveWindow)
	if windows < 1 {
		windows = 1
	}
	var lags []float64
	var steady []int
	for w := 0; w < windows; w++ {
		steady = append(steady, phaseSteady+w)
		lags = append(lags, lc.drive(gen, liveSteadyRate, steadyDur/time.Duration(windows), phaseSteady+w)...)
	}
	lc.drain(2*time.Second, steady...)
	if err := ph.end(); err != nil {
		return nil, err
	}
	after := snapshotNodes(lc.nodes)
	trAfter := snapshotTransports(lc.trs)
	nodeRounds := lc.ticks.Load() - ticks0
	if lc.lt != nil {
		lc.lt.mu.Lock()
		lc.lt.capture = false
		lc.lt.mu.Unlock()
	}
	var p50s, p99s []float64
	for _, p := range steady {
		t := lc.or.tally(p)
		p50s = append(p50s, quantile(t.Latencies, 0.50))
		p99s = append(p99s, quantile(t.Latencies, 0.99))
	}
	st := lc.or.sum(steady...)
	items := int64(len(lags))
	res.setE2E("latency_p50_ms", median(p50s), len(st.Latencies),
		fmt.Sprintf("deliveries, wall clock from scheduled send; median of %d windows", windows))
	res.notes = append(res.notes, fmt.Sprintf("latency_p99_ms = %.4f ms (n=%d deliveries; median of %d windows)", median(p99s), len(st.Latencies), windows))
	res.setE2E("delivery_ratio", st.Ratio(), int(st.Expected), "expected pairs")
	units := float64(st.Delivered)
	if units == 0 {
		units = 1
	}
	res.setE2E("cpu_us_per_unit", float64(ph.CPU.Microseconds())/units, int(st.Delivered), "deliveries")
	res.setE2E("heap_kb_per_node", float64(ph.Heap)/1024/liveNodes, 1, "heap reachable at phase end")
	trd := minusTransport(trAfter, trBefore)
	res.setE2E("bytes_per_unit", float64(trd.BytesSent)/units, int(st.Delivered), "deliveries")

	// Knee search: climb a geometric ladder of rates from twice the
	// steady rate until a step fails, then interpolate, in log latency,
	// where the median crossed the limit between the last pass and that
	// failure. A failed step is retested once, so one scheduling hiccup on
	// a shared host does not end the climb early.
	kneeStart := time.Now()
	kneeBudget := time.Duration(float64(cfg.seconds) * (1 - liveSteadyShare) * float64(time.Second))
	stepDur := time.Duration(float64(cfg.seconds) * liveStepShare * float64(time.Second))
	var kneeSteps []string
	phase := phaseKnee0
	limit := float64(liveP50Limit.Milliseconds())
	step := func(rate float64) (bool, float64) {
		drops0 := lc.transportDrops()
		lc.drive(gen, rate, stepDur, phase)
		lc.drain(time.Second, phase)
		t := lc.or.tally(phase)
		p99 := quantile(t.Latencies, 0.99)
		p50 := quantile(t.Latencies, 0.50)
		kept := t.Expected > 0 && t.Delivered == t.Expected && t.Failures() == 0 &&
			lc.transportDrops() == drops0
		if !kept && p50 < limit {
			p50 = limit // a lost or late delivery misses any latency limit
		}
		pass := kept && p50 < limit
		kneeSteps = append(kneeSteps, fmt.Sprintf("%.0f/s:p50=%.1fms,p99=%.1fms,ratio=%.4f,pass=%v",
			rate, p50, p99, t.Ratio(), pass))
		// Let a failed step's backlog clear before the next one.
		lc.drain(3*time.Second, phase)
		phase++
		return pass, p50
	}
	// climb returns the knee found from start, or the last rate passed
	// when the budget runs out first (0 if none passed).
	climb := func(start float64) float64 {
		var passRate, passP50 float64
		for rate := start; time.Since(kneeStart) < kneeBudget; {
			pass, p50 := step(rate)
			if !pass {
				pass, p50 = step(rate)
			}
			switch {
			case pass:
				passRate, passP50 = rate, p50
				rate *= liveLadderStep
				continue
			case passRate == 0:
				// The first rung already fails: climb down instead.
				rate /= liveLadderStep
				continue
			}
			frac := (math.Log(limit) - math.Log(passP50)) / (math.Log(p50) - math.Log(passP50))
			return passRate + (rate-passRate)*math.Max(0, math.Min(1, frac))
		}
		return passRate
	}
	knee := climb(2 * liveSteadyRate)
	if knee > 0 {
		// Climb again from two rungs below and keep the higher knee, so a
		// host stall during one climb does not set the result.
		knee = math.Max(knee, climb(knee/(liveLadderStep*liveLadderStep)))
	}
	if knee == 0 {
		// Nothing passed at all; report the steady rate's half so the
		// metric stays positive and the failure shows as a drop.
		knee = liveSteadyRate / 2
	}
	// Reported as deliveries per second, the knee rate times the mean
	// subscribers per item: the seeded subscriptions set how many
	// subscribers an item has, and items/s would move with them.
	perItem := float64(st.Expected) / float64(items)
	res.setE2E("throughput_per_s", knee*perItem, len(kneeSteps), "knee steps, deliveries/s")
	res.notes = append(res.notes, fmt.Sprintf("knee = %.1f items/s at %.3f deliveries per item", knee, perItem),
		"knee steps: "+fmt.Sprint(kneeSteps))

	if st.Missing() > 0 {
		// Say whether the missing pairs turned up later or never did.
		res.notes = append(res.notes, fmt.Sprintf("steady phase: %d pairs missing after the drain, %d still missing at the end; %s",
			st.Missing(), lc.or.sum(steady...).Missing(), lc.or.missingPairs(5, steady...)))
	}
	tot := lc.or.total()
	res.attempted = tot.Expected + tot.PublishErrors
	// Missing pairs count as failures only in the steady phase: above the
	// knee, shedding load is the behaviour the search looks for.
	res.failed = tot.Failures() + st.Missing()
	res.correct = res.failed == 0 && st.Ratio() == 1

	if cfg.traced {
		lc.fillLayers(res, before, after, trBefore, trAfter, ph, st, items, nodeRounds, lags)
	}
	return res, nil
}

func (lc *liveCluster) fillLayers(res *result, before, after []nodeStats, trBefore, trAfter transport.Stats,
	ph *phase, st tally, items, nodeRounds int64, lags []float64) {
	lt := lc.lt
	units := float64(st.Delivered)
	res.setSelfTimes(ph, units)
	nd := sumNodeStats(after).minus(sumNodeStats(before))
	nd.fill(res, items, units, nodeRounds)
	trd := minusTransport(trAfter, trBefore)
	res.setLayer("wire.encode_us", lt.encode.meanUS())
	res.setLayer("transport.enqueue_us", lt.enqueue.meanUS())
	if trd.FlushBatches > 0 {
		res.setLayer("transport.frames_per_flush", float64(trd.FramesSent)/float64(trd.FlushBatches))
	}
	res.setLayer("transport.queue_high_water", float64(trAfter.QueueHighWater))
	res.setLayer("transport.drops", float64(trd.QueueFullDrops+trd.ConnDrops))
	res.setLayer("core.publish_us", lt.publish.meanUS())
	res.setLayer("core.handle_us.multicast", lt.hMulticast.meanUS())
	res.setLayer("core.handle_us.gossip", lt.hGossip.meanUS())
	res.setLayer("core.handle_us.ack", lt.hAck.meanUS())
	sorted := append([]float64(nil), lags...)
	sort.Float64s(sorted)
	res.setLayer("gen.lag_ms", quantile(sorted, 0.99))

	// Replay captured frames and envelopes through the decoders.
	lt.mu.Lock()
	frames, envs := lt.frames, lt.envs
	if lt.frameN > 0 {
		res.setLayer("wire.frame_bytes", float64(lt.frameBytes)/float64(lt.frameN))
	}
	lt.mu.Unlock()
	us, bad := replayUS(len(frames), func(i int) error {
		_, err := wire.Decode(frames[i])
		return err
	})
	res.setLayer("wire.decode_us", us)
	res.failed += bad
	us, bad = replayUS(len(envs), func(i int) error {
		_, err := pubsub.DecodeItem(&envs[i])
		return err
	})
	res.setLayer("news.decode_us", us)
	res.failed += bad
	res.correct = res.correct && res.failed == 0
}

// replayUS checks that fn succeeds on each of n samples, then calls it
// over them until at least 50ms have passed. It returns the mean µs per
// call and how many samples failed.
func replayUS(n int, fn func(i int) error) (float64, int64) {
	var bad int64
	for i := 0; i < n; i++ {
		if fn(i) != nil {
			bad++
		}
	}
	if n == 0 {
		return 0, bad
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for i := 0; i < n; i++ {
			_ = fn(i) // failures were counted above
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(calls), bad
}
