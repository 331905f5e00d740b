package main

import (
	"fmt"

	"newswire/internal/astrolabe"
	"newswire/internal/cache"
	"newswire/internal/core"
	"newswire/internal/multicast"
	"newswire/internal/pubsub"
	"newswire/internal/transport"
)

// End-to-end metrics, reported by every workload, with their units. Each
// workload's run record says what the metric counts there (setE2E's note).
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"latency_p50_ms":   "ms",
	"throughput_per_s": "1/s",
	"cpu_us_per_unit":  "us",
	"delivery_ratio":   "ratio",
	"heap_kb_per_node": "KiB",
	"bytes_per_unit":   "B",
}

var e2eOrder = []string{"setup_s", "latency_p50_ms", "throughput_per_s",
	"cpu_us_per_unit", "delivery_ratio", "heap_kb_per_node", "bytes_per_unit"}

// Per-layer metrics of the traced run, besides one <module>.self_us per
// profileModules entry. A metric a workload does not exercise reads 0.
var layerCounters = []string{
	"news.decode_us",
	"wire.encode_us", "wire.decode_us", "wire.frame_bytes",
	"transport.enqueue_us", "transport.frames_per_flush", "transport.queue_high_water", "transport.drops",
	"core.publish_us", "core.handle_us.multicast", "core.handle_us.gossip", "core.handle_us.ack",
	"multicast.forwards_per_delivery", "multicast.duplicates_per_item", "multicast.retries_per_item",
	"multicast.delivery_failures",
	"pubsub.fp_drops_per_item", "pubsub.subgroup_tests_per_item",
	"cache.duplicate_ratio",
	"astrolabe.agg_evals_per_node_round", "astrolabe.rows_merged_per_node_round",
	"astrolabe.rows_sent_per_node_round", "astrolabe.digests_sent_per_node_round",
	"sim.events_per_round",
	"gen.lag_ms",
}

var layerUnits = map[string]string{
	"news.decode_us": "us", "wire.encode_us": "us", "wire.decode_us": "us", "wire.frame_bytes": "B",
	"transport.enqueue_us": "us", "transport.frames_per_flush": "count",
	"transport.queue_high_water": "frames", "transport.drops": "count",
	"core.publish_us": "us", "core.handle_us.multicast": "us", "core.handle_us.gossip": "us",
	"core.handle_us.ack":              "us",
	"multicast.forwards_per_delivery": "count", "multicast.duplicates_per_item": "count",
	"multicast.retries_per_item": "count", "multicast.delivery_failures": "count",
	"pubsub.fp_drops_per_item": "count", "pubsub.subgroup_tests_per_item": "count",
	"cache.duplicate_ratio":              "ratio",
	"astrolabe.agg_evals_per_node_round": "count", "astrolabe.rows_merged_per_node_round": "count",
	"astrolabe.rows_sent_per_node_round": "count", "astrolabe.digests_sent_per_node_round": "count",
	"sim.events_per_round": "count", "gen.lag_ms": "ms",
}

// layerNames lists every per-layer metric in report order.
func layerNames() []string {
	var out []string
	for _, m := range profileModules {
		out = append(out, m+".self_us")
	}
	return append(out, layerCounters...)
}

func layerUnit(name string) string {
	if u, ok := layerUnits[name]; ok {
		return u
	}
	return "us" // <module>.self_us
}

// result is one workload run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	e2e               map[string]float64
	samples           map[string]string // e2e metric -> sample count note
	layer             map[string]float64
	notes             []string
	// profiledCPU is the process CPU µs per unit of work over the
	// profiled phase, the figure the self times must add up to.
	profiledCPU float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, samples: map[string]string{}, layer: map[string]float64{}}
}

func (r *result) setE2E(name string, v float64, n int, of string) {
	if _, ok := e2eUnits[name]; !ok {
		panic("unknown end-to-end metric " + name)
	}
	r.e2e[name] = v
	r.samples[name] = fmt.Sprintf("n=%d %s", n, of)
}

func (r *result) setLayer(name string, v float64) {
	r.layer[name] = v
}

// setSelfTimes reports each module's sampled CPU per unit of work.
func (r *result) setSelfTimes(ph *phase, units float64) {
	if units <= 0 {
		units = 1
	}
	for _, m := range profileModules {
		r.setLayer(m+".self_us", float64(ph.Profile[m].Nanoseconds())/1e3/units)
	}
	r.profiledCPU = float64((ph.CPU + ph.exCPU).Nanoseconds()) / 1e3 / units
}

// nodeStats is the sum of the counters one or more nodes keep.
type nodeStats struct {
	agent   astrolabe.Stats
	router  multicast.Stats
	routing pubsub.CounterSnapshot
	cache   cache.Stats
}

func snapshotNodes(nodes []*core.Node) []nodeStats {
	out := make([]nodeStats, 0, len(nodes))
	for _, n := range nodes {
		if n == nil {
			continue
		}
		out = append(out, nodeStats{
			agent:   n.Agent().Stats(),
			router:  n.Router().Stats(),
			routing: n.RoutingStats(),
			cache:   n.Cache().Stats(),
		})
	}
	return out
}

func sumNodeStats(all []nodeStats) nodeStats {
	var s nodeStats
	for _, n := range all {
		s.agent.AggEvals += n.agent.AggEvals
		s.agent.RowsMerged += n.agent.RowsMerged
		s.agent.RowsSent += n.agent.RowsSent
		s.agent.DigestsSent += n.agent.DigestsSent
		s.router.Forwarded += n.router.Forwarded
		s.router.Duplicates += n.router.Duplicates
		s.router.RetriesSent += n.router.RetriesSent
		s.router.DeliveryFailures += n.router.DeliveryFailures
		s.routing.FalsePositiveDrops += n.routing.FalsePositiveDrops
		s.routing.SubgroupTests += n.routing.SubgroupTests
		s.cache.Puts += n.cache.Puts
		s.cache.Duplicates += n.cache.Duplicates
	}
	return s
}

func (s nodeStats) minus(o nodeStats) nodeStats {
	s.agent.AggEvals -= o.agent.AggEvals
	s.agent.RowsMerged -= o.agent.RowsMerged
	s.agent.RowsSent -= o.agent.RowsSent
	s.agent.DigestsSent -= o.agent.DigestsSent
	s.router.Forwarded -= o.router.Forwarded
	s.router.Duplicates -= o.router.Duplicates
	s.router.RetriesSent -= o.router.RetriesSent
	s.router.DeliveryFailures -= o.router.DeliveryFailures
	s.routing.FalsePositiveDrops -= o.routing.FalsePositiveDrops
	s.routing.SubgroupTests -= o.routing.SubgroupTests
	s.cache.Puts -= o.cache.Puts
	s.cache.Duplicates -= o.cache.Duplicates
	return s
}

// fill reports the counter deltas normalised by items published,
// deliveries and node-rounds.
func (s nodeStats) fill(r *result, items int64, deliveries float64, nodeRounds int64) {
	per := func(v int64, base float64) float64 {
		if base <= 0 {
			return 0
		}
		return float64(v) / base
	}
	r.setLayer("multicast.forwards_per_delivery", per(s.router.Forwarded, deliveries))
	r.setLayer("multicast.duplicates_per_item", per(s.router.Duplicates, float64(items)))
	r.setLayer("multicast.retries_per_item", per(s.router.RetriesSent, float64(items)))
	r.setLayer("multicast.delivery_failures", float64(s.router.DeliveryFailures))
	r.setLayer("pubsub.fp_drops_per_item", per(s.routing.FalsePositiveDrops, float64(items)))
	r.setLayer("pubsub.subgroup_tests_per_item", per(s.routing.SubgroupTests, float64(items)))
	r.setLayer("cache.duplicate_ratio", per(s.cache.Duplicates, float64(s.cache.Puts)))
	nr := float64(nodeRounds)
	r.setLayer("astrolabe.agg_evals_per_node_round", per(s.agent.AggEvals, nr))
	r.setLayer("astrolabe.rows_merged_per_node_round", per(s.agent.RowsMerged, nr))
	r.setLayer("astrolabe.rows_sent_per_node_round", per(s.agent.RowsSent, nr))
	r.setLayer("astrolabe.digests_sent_per_node_round", per(s.agent.DigestsSent, nr))
}

// snapshotTransports sums the TCP counters of every node; QueueHighWater
// is the deepest queue of any node.
func snapshotTransports(trs []*transport.TCP) transport.Stats {
	var s transport.Stats
	for _, tr := range trs {
		st := tr.TransportStats()
		s.FramesSent += st.FramesSent
		s.BytesSent += st.BytesSent
		s.FlushBatches += st.FlushBatches
		s.QueueFullDrops += st.QueueFullDrops
		s.ConnDrops += st.ConnDrops
		if st.QueueHighWater > s.QueueHighWater {
			s.QueueHighWater = st.QueueHighWater
		}
	}
	return s
}

func minusTransport(a, b transport.Stats) transport.Stats {
	a.FramesSent -= b.FramesSent
	a.BytesSent -= b.BytesSent
	a.FlushBatches -= b.FlushBatches
	a.QueueFullDrops -= b.QueueFullDrops
	a.ConnDrops -= b.ConnDrops
	return a
}
