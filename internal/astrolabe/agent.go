package astrolabe

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"newswire/internal/bloom"
	"newswire/internal/metrics"
	"newswire/internal/sqlagg"
	"newswire/internal/transport"
	"newswire/internal/value"
	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// Well-known attribute names. The default aggregation program and the
// pub/sub layer agree on these.
const (
	// AttrAddr is the transport address of a leaf agent, or the primary
	// contact (least-loaded representative) of an aggregated zone.
	AttrAddr = "addr"
	// AttrLoad is the advertised load used for representative election.
	AttrLoad = "load"
	// AttrReps lists the elected multicast representatives of a zone.
	AttrReps = "reps"
	// AttrMembers counts the leaf nodes under a zone.
	AttrMembers = "nmembers"
	// AttrSubs is the OR-aggregated subscription Bloom filter (§6).
	AttrSubs = "subs"
	// AttrPubs is the roster of publishers known below a zone.
	AttrPubs = "pubs"
	// AttrVirtual marks a template row standing in for a quiescent leaf
	// member that has no running agent behind it (a simulation's virtual
	// leaves, core/virtual.go). Virtual rows are pinned from expiry —
	// nothing reissues them — and are never chosen as gossip or recovery
	// partners, since no agent would answer.
	AttrVirtual = "virt"
)

// Health attribute namespace (DESIGN.md §12). Each node folds a compact
// digest of its own runtime metrics into its leaf row under these
// reserved prefixes, and the prefix rules from HealthRules roll them up
// per zone — so any node answers cluster-wide health questions (total
// drops, merged delivery p99, worst node) from its own replicated root
// table, the paper's aggregation machinery pointed at the system itself.
// The segment after sys$health$ selects the merge operator, so one rule
// per operator covers an open-ended attribute set.
const (
	// HealthPrefix is the reserved namespace for self-monitoring
	// attributes. FingerprintTables excludes everything under it: health
	// counters (retries, drops) legitimately diverge between runs whose
	// delivery content converged — a chaos run and its clean twin — and
	// must not fail the convergence oracle.
	HealthPrefix = "sys$health$"
	// HealthSumPrefix attributes aggregate by numeric sum (counters:
	// drops, retries, failures, member counts).
	HealthSumPrefix = "sys$health$s$"
	// HealthMaxPrefix attributes aggregate by max under value.Compare
	// (high-water marks; lexical max for worst-node election strings).
	HealthMaxPrefix = "sys$health$x$"
	// HealthMinPrefix attributes aggregate by min (stalest refresh time).
	HealthMinPrefix = "sys$health$m$"
	// HealthSketchPrefix attributes hold encoded metrics.Sketch values
	// and aggregate by sketch merge (latency distributions, so quantiles
	// survive aggregation — a plain MAX of per-node p99s would not).
	HealthSketchPrefix = "sys$health$q$"
)

// HealthRules returns the prefix rules that aggregate the sys$health
// namespace up the zone hierarchy. They are installed only on clusters
// that publish health attributes: an agent without them does zero extra
// work, which is what keeps disabled-mode overhead at zero.
func HealthRules() []PrefixRule {
	return []PrefixRule{
		{Prefix: HealthSumPrefix, Op: PrefixSum},
		{Prefix: HealthMaxPrefix, Op: PrefixMax},
		{Prefix: HealthMinPrefix, Op: PrefixMin},
		{Prefix: HealthSketchPrefix, Op: PrefixSketch},
	}
}

// DefaultRepCount is how many multicast representatives the default
// aggregation program elects per zone.
const DefaultRepCount = 3

// DefaultAggregationSource is the SQL aggregation program installed when
// Config.Aggregation is nil. It computes exactly the summaries the paper
// needs: member counts, the k least-loaded representatives with a primary
// contact, the OR of subscription Bloom filters, and the publisher roster.
const DefaultAggregationSource = `SELECT
	SUM(COALESCE(nmembers, 1)) AS nmembers,
	REPS(3, load, COALESCE(reps, addr)) AS reps,
	MINV(load, addr) AS addr,
	MIN(load) AS load,
	BIT_OR(subs) AS subs,
	UNION(pubs) AS pubs`

// DefaultAggregation parses DefaultAggregationSource.
func DefaultAggregation() *sqlagg.Program {
	return sqlagg.MustParse(DefaultAggregationSource)
}

// PrefixOp is the merge operator a PrefixRule applies.
type PrefixOp int

// Prefix aggregation operators.
const (
	PrefixBoolOr PrefixOp = iota + 1
	PrefixSum
	// PrefixMin and PrefixMax keep the smallest/largest value under
	// value.Compare semantics: numeric across Int/Float, lexical within
	// strings, chronological within times. Incomparable values keep the
	// accumulator.
	PrefixMin
	PrefixMax
	// PrefixSketch merges encoded metrics.Sketch byte values bucket-wise,
	// so latency distributions aggregate losslessly up the hierarchy.
	PrefixSketch
	// PrefixSubgroup merges encoded bloom signature sets
	// (bloom.MergeSignatureSets): subgroup filters from both sides are
	// concatenated and greedily re-clustered down to the larger side's K,
	// so a zone row summarizes its children's predicate subscriptions as
	// up to K tight subgroup filters instead of one saturated OR (§7,
	// pubsub.ModePredicate).
	PrefixSubgroup
)

// PrefixRule aggregates every attribute whose name starts with Prefix,
// independently per attribute name. This models the paper's early
// prototype (§7), where "each available publisher is represented as an
// attribute in Astrolabe" holding a category bit mask — a dynamic
// attribute set a fixed SELECT list cannot name. Experiment E8 uses a
// per-subscription prefix rule to reproduce the "poorly scalable"
// attribute-per-subscription design the Bloom filter replaces.
type PrefixRule struct {
	Prefix string
	Op     PrefixOp
}

// msgOverhead mirrors the fixed per-message envelope cost wire's
// EstimateSize charges for row-bearing gossip kinds — version, kind, the
// From-address and zone-ref framing bytes, and the interned-table
// allowance — excluding the From address itself, which the transport
// stamps at send time. (Assumes addresses shorter than 128 bytes, so
// their length prefix is one byte; the accounting parity test pins this.)
// Digest-only frames carry a much smaller table (zone paths only, no
// attribute names), so they get their own constant.
const (
	msgOverhead       = 4 + wire.GossipTableOverhead
	digestMsgOverhead = 4 + wire.DigestTableOverhead
)

// Config configures an Agent.
type Config struct {
	// Name is the agent's row name, unique within its leaf zone.
	Name string
	// ZonePath is the leaf zone the agent lives in, e.g. "/usa/ny".
	ZonePath string
	// Transport delivers and receives wire messages. The agent stores
	// Transport.Addr() in its row's addr attribute.
	Transport transport.Transport
	// Clock supplies time (vtime.Real{} for live use, the simulator's
	// virtual clock in experiments).
	Clock vtime.Clock
	// Rand drives gossip partner selection. Required: injecting it keeps
	// simulations deterministic.
	Rand *rand.Rand
	// GossipInterval is the expected time between Tick calls; it scales
	// the failure timeout. Default 2s.
	GossipInterval time.Duration
	// FailTimeout is how stale a leaf row may get before it is evicted
	// (failure detection, §3). Default 10×GossipInterval.
	FailTimeout time.Duration
	// AggFailTimeout is the eviction timeout for aggregated zone rows.
	// It must exceed FailTimeout: when a zone's only elected
	// representative dies, sibling zones stop receiving refreshes until
	// re-election completes (one FailTimeout later), and evicting the
	// sibling row in that window would partition the hierarchy
	// permanently. Default 4×FailTimeout.
	AggFailTimeout time.Duration
	// Fanout is how many partners to gossip with per level per Tick.
	// Default 1.
	Fanout int
	// Aggregation is the zone aggregation program. Default
	// DefaultAggregation().
	Aggregation *sqlagg.Program
	// PrefixRules aggregate dynamically named attributes (see PrefixRule).
	PrefixRules []PrefixRule
	// SignRow, when set, signs rows this agent issues (its own leaf row
	// and aggregates it computes).
	SignRow func(r *wire.RowUpdate)
	// VerifyRow, when set, authenticates rows received in gossip; rows
	// failing verification are discarded.
	VerifyRow func(r *wire.RowUpdate) error
	// DisableDeltaGossip makes the agent initiate anti-entropy by pushing
	// its full shared state (the pre-digest protocol) instead of a row
	// digest. Delta gossip is the default; the full-state path is kept as
	// a fallback and for ablation experiments. Agents handle both
	// protocols on receive regardless of this setting, so mixed clusters
	// interoperate.
	DisableDeltaGossip bool
}

// Row is a snapshot of one MIB row, copied out of the agent's internal
// state for callers. Attrs is shared with the immutable stored row and
// must be treated as read-only.
type Row struct {
	Name   string
	Attrs  value.Map
	Issued time.Time
	Owner  string
	Signer string
	Sig    []byte
}

// snapshotRow renders a stored shared row as a public Row snapshot.
func snapshotRow(r *wire.SharedRow) Row {
	return Row{
		Name:   r.Name,
		Attrs:  r.Attrs,
		Issued: r.Issued,
		Owner:  r.Owner,
		Signer: r.Signer,
		Sig:    r.Sig,
	}
}

// sameAttrs reports whether two attribute maps share the same backing
// storage — the dominant steady-state merge case, where a heartbeat
// re-issue of an unchanged row carries the very map this agent already
// stores. It is a pure fast path for Map.Equal: identical storage implies
// equal content.
func sameAttrs(a, b value.Map) bool {
	return len(a) > 0 && len(a) == len(b) &&
		reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// Stats counts agent activity, for tests and experiment tables.
type Stats struct {
	GossipsSent     int64
	GossipsReceived int64
	RepliesReceived int64
	RowsMerged      int64
	RowsRejected    int64
	RowsExpired     int64
	// GossipBytesSent estimates the wire bytes of all anti-entropy
	// traffic this agent initiated or answered, using the same size
	// model as wire.Message.EstimateSize.
	GossipBytesSent int64
	// RowsSent counts full row updates shipped in gossip messages.
	RowsSent int64
	// DigestsSent counts digest entries shipped in GossipDigest messages.
	DigestsSent int64
	// StampsSent counts re-issue stamps shipped in delta replies in place
	// of full rows (identical content on both sides, only the issue time
	// lagged, row unsigned).
	StampsSent int64
	// StampsApplied counts stored rows re-stamped to a newer issue time
	// without their attribute bytes crossing the wire — from a peer's
	// stamp, or locally when a digest proves the peer holds the very
	// bytes this agent stores.
	StampsApplied int64
	// AggEvals counts aggregation program evaluations. Dirty-zone
	// tracking exists to keep this from growing when no input changed;
	// tests assert a quiescent Tick adds zero.
	AggEvals int64
}

// table is one replicated zone table. Rows are immutable shared values
// (wire.SharedRow): merging a gossiped row installs the sender's pointer,
// so the table is copy-on-write — writers never modify a stored row, they
// replace the map entry with a freshly built one.
type table struct {
	rows map[string]*wire.SharedRow
	// dirty records that the attribute *content* of this table changed
	// (row added, removed, or attributes replaced) since the zone's
	// aggregate was last computed. Timestamp-only refreshes — the
	// steady-state heartbeat traffic — leave it clear, letting
	// recomputeAggregatesLocked re-stamp the aggregate row without
	// re-running the aggregation program.
	dirty bool
	// aggHash is the attrs hash of the aggregate row this agent last
	// computed (or confirmed) for this zone. The re-stamp fast path only
	// trusts a stored aggregate that still matches it: a row mutated
	// behind the agent's back (corruption, a buggy merge) must be
	// recomputed from inputs, never re-stamped and re-signed as-is.
	aggHash uint64
}

// Agent is one Astrolabe participant: it owns a row in its leaf zone,
// replicates the tables of its ancestor chain, gossips them epidemically,
// and recomputes aggregate rows for its chain.
type Agent struct {
	cfg   Config
	name  string
	addr  string
	leaf  string
	chain []string // root-first, ending at leaf zone

	// stampLag is how stale a hash-equal replica must be before a
	// heartbeat stamp (or local re-stamp) refreshes it. Propagating
	// freshness in stampLag jumps rather than every round keeps
	// steady-state anti-entropy traffic near zero; FailTimeout is 5×
	// this, so the margin before spurious expiry stays wide.
	stampLag time.Duration

	mu      sync.Mutex
	tables  map[string]*table
	ownRow  *wire.SharedRow
	stats   Stats
	started time.Time
}

// NewAgent validates cfg and returns an agent with its own row issued
// (but not yet gossiped — call Tick to start participating).
func NewAgent(cfg Config) (*Agent, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("astrolabe: agent name required")
	}
	if err := ValidateZonePath(cfg.ZonePath); err != nil {
		return nil, err
	}
	if cfg.ZonePath == RootZone {
		return nil, fmt.Errorf("astrolabe: agents must live below the root zone")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("astrolabe: transport required")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("astrolabe: clock required")
	}
	if cfg.Rand == nil {
		return nil, fmt.Errorf("astrolabe: rand required")
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 2 * time.Second
	}
	if cfg.FailTimeout <= 0 {
		cfg.FailTimeout = 10 * cfg.GossipInterval
	}
	if cfg.AggFailTimeout <= 0 {
		cfg.AggFailTimeout = 4 * cfg.FailTimeout
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 1
	}
	if cfg.Aggregation == nil {
		cfg.Aggregation = DefaultAggregation()
	}

	a := &Agent{
		cfg:      cfg,
		name:     cfg.Name,
		addr:     cfg.Transport.Addr(),
		leaf:     cfg.ZonePath,
		chain:    AncestorChain(cfg.ZonePath),
		tables:   make(map[string]*table),
		stampLag: cfg.FailTimeout / 5,
	}
	for _, z := range a.chain {
		a.tables[z] = &table{rows: make(map[string]*wire.SharedRow), dirty: true}
	}
	now := cfg.Clock.Now()
	a.started = now
	a.ownRow = &wire.SharedRow{
		Name: a.name,
		Attrs: value.Map{
			AttrAddr: value.String(a.addr),
			AttrLoad: value.Float(0),
		},
		Issued: now,
		Owner:  a.addr,
	}
	a.signRowLocked(a.ownRow, a.leaf)
	a.tables[a.leaf].rows[a.name] = a.ownRow
	a.recomputeAggregatesLocked()
	return a, nil
}

// Name returns the agent's row name.
func (a *Agent) Name() string { return a.name }

// Addr returns the agent's transport address.
func (a *Agent) Addr() string { return a.addr }

// ZonePath returns the agent's leaf zone.
func (a *Agent) ZonePath() string { return a.leaf }

// Chain returns the agent's ancestor chain, root-first, ending at its
// leaf zone. The returned slice is shared; do not modify.
func (a *Agent) Chain() []string { return a.chain }

// Stats returns a copy of the agent's activity counters.
func (a *Agent) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// SetAttr updates one attribute of the agent's own row and re-issues it.
// The agent's row map is copied on write, preserving the immutability of
// previously gossiped maps.
func (a *Agent) SetAttr(name string, v value.Value) {
	a.mu.Lock()
	defer a.mu.Unlock()
	attrs := a.ownRow.Attrs.Clone()
	if v.IsValid() {
		attrs[name] = v
	} else {
		delete(attrs, name)
	}
	a.reissueOwnRowLocked(attrs, true)
	a.recomputeAggregatesLocked()
}

// SetAttrs updates several attributes at once (one re-issue).
func (a *Agent) SetAttrs(m value.Map) {
	a.mu.Lock()
	defer a.mu.Unlock()
	attrs := a.ownRow.Attrs.Clone()
	for name, v := range m {
		if v.IsValid() {
			attrs[name] = v
		} else {
			delete(attrs, name)
		}
	}
	a.reissueOwnRowLocked(attrs, true)
	a.recomputeAggregatesLocked()
}

// Attr reads one attribute of the agent's own row.
func (a *Agent) Attr(name string) value.Value {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ownRow.Attrs[name]
}

// reissueOwnRowLocked replaces the agent's own row with a freshly built
// shared row (the stored one is immutable and may be referenced by every
// peer that merged it). contentChanged reports whether attrs differ from
// the current row: heartbeats pass false, which both keeps the leaf table
// clean for the incremental-aggregation fast path and carries the cached
// encoding/digest over to the new row.
func (a *Agent) reissueOwnRowLocked(attrs value.Map, contentChanged bool) {
	row := &wire.SharedRow{
		Name:   a.name,
		Attrs:  attrs,
		Issued: a.cfg.Clock.Now(),
		Owner:  a.addr,
	}
	if contentChanged {
		a.tables[a.leaf].dirty = true
	} else if old := a.ownRow; old != nil {
		row.AdoptCache(old)
	}
	a.signRowLocked(row, a.leaf)
	a.ownRow = row
	a.tables[a.leaf].rows[a.name] = row
}

func (a *Agent) signRowLocked(r *wire.SharedRow, zone string) {
	if a.cfg.SignRow == nil {
		return
	}
	u := wire.RowUpdate{
		Zone:   zone,
		Name:   r.Name,
		Attrs:  r.Attrs,
		Issued: r.Issued,
		Owner:  r.Owner,
	}
	a.cfg.SignRow(&u)
	r.Signer = u.Signer
	r.Sig = u.Sig
}

// Table returns a snapshot of the rows of one replicated zone table,
// sorted by row name. Attrs maps are shared and must be treated as
// read-only. The second result reports whether the agent replicates the
// zone at all.
func (a *Agent) Table(zone string) ([]Row, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.tables[zone]
	if !ok {
		return nil, false
	}
	rows := make([]Row, 0, len(t.rows))
	for _, r := range t.rows {
		rows = append(rows, snapshotRow(r))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, true
}

// Row returns one row of a replicated zone table.
func (a *Agent) Row(zone, name string) (Row, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.tables[zone]
	if !ok {
		return Row{}, false
	}
	r, ok := t.rows[name]
	if !ok {
		return Row{}, false
	}
	return snapshotRow(r), true
}

// IsRepresentative reports whether this agent is currently an elected
// representative of its child zone within zone (i.e. whether it gossips
// and forwards at that level). zone must be a proper ancestor of the
// agent's leaf zone.
func (a *Agent) IsRepresentative(zone string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.isRepresentativeLocked(zone)
}

func (a *Agent) isRepresentativeLocked(zone string) bool {
	child, ok := ChildToward(zone, a.leaf)
	if !ok {
		// zone == leaf: every member participates at leaf level.
		return zone == a.leaf
	}
	t, ok := a.tables[zone]
	if !ok {
		return false
	}
	row, ok := t.rows[ZoneName(child)]
	if !ok {
		return false
	}
	reps, ok := row.Attrs[AttrReps].AsStrings()
	if !ok {
		return false
	}
	for _, r := range reps {
		if r == a.addr {
			return true
		}
	}
	return false
}

// OwnRowUpdate returns the agent's current leaf row as a RowUpdate, for
// seeding other agents' membership at bootstrap.
func (a *Agent) OwnRowUpdate() wire.RowUpdate {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ownRow.Update(a.leaf)
}

// ChainRowUpdates returns the agent's own leaf row plus the aggregate row
// it computed for each zone on its chain. Merging another agent's chain
// rows is the bootstrap introduction: same-zone peers learn the leaf row,
// distant peers learn the aggregated zone rows they share tables with (the
// zone-placement configuration the paper defers to the Astrolabe effort,
// §8).
func (a *Agent) ChainRowUpdates() []wire.RowUpdate {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := []wire.RowUpdate{a.ownRow.Update(a.leaf)}
	for i := len(a.chain) - 1; i >= 1; i-- {
		child := a.chain[i]
		parent := a.chain[i-1]
		if r, ok := a.tables[parent].rows[ZoneName(child)]; ok {
			out = append(out, r.Update(parent))
		}
	}
	return out
}

// MergeRows folds externally obtained rows (bootstrap seeds or state
// transfer) into the agent's replicas, as if they had arrived in gossip.
func (a *Agent) MergeRows(rows []wire.RowUpdate) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.mergeRowsLocked(rows)
	a.recomputeAggregatesLocked()
}

// Tick advances the agent one gossip round: re-issue the heartbeat on its
// own row, evict stale rows, recompute aggregates, and gossip with
// partners at every level where this agent is active.
func (a *Agent) Tick() {
	a.mu.Lock()
	now := a.cfg.Clock.Now()

	// Heartbeat: re-issue own row so peers' failure detectors stay quiet.
	a.reissueOwnRowLocked(a.ownRow.Attrs, false)

	// Failure detection: evict rows that have not been refreshed.
	a.expireLocked(now)

	// Recompute the aggregate rows along this agent's chain.
	a.recomputeAggregatesLocked()

	// Choose gossip partners under the lock, send after releasing it.
	type dest struct {
		addr  string
		level string // deepest shared zone
	}
	var dests []dest
	for i := len(a.chain) - 1; i >= 0; i-- {
		zone := a.chain[i]
		if zone == a.leaf {
			for _, addr := range a.pickLeafPartnersLocked(a.cfg.Fanout) {
				dests = append(dests, dest{addr: addr, level: zone})
			}
			continue
		}
		if !a.isRepresentativeLocked(zone) {
			continue
		}
		for _, addr := range a.pickZonePartnersLocked(zone, a.cfg.Fanout) {
			dests = append(dests, dest{addr: addr, level: zone})
		}
	}

	msgs := make([]*wire.Message, 0, len(dests))
	addrs := make([]string, 0, len(dests))
	for _, d := range dests {
		var m *wire.Message
		var payload, overhead int
		if a.cfg.DisableDeltaGossip {
			rows, size := a.sharedRowsLocked(d.level)
			m = &wire.Message{
				Kind:   wire.KindGossip,
				Gossip: &wire.Gossip{FromZone: a.leaf, Rows: rows},
			}
			a.stats.RowsSent += int64(len(rows))
			payload = wire.UvarintLen(uint64(len(rows))) + size
			overhead = msgOverhead
		} else {
			digests, size := a.digestLocked(d.level)
			m = &wire.Message{
				Kind:         wire.KindGossipDigest,
				GossipDigest: &wire.GossipDigest{FromZone: a.leaf, Digests: digests},
			}
			a.stats.DigestsSent += int64(len(digests))
			payload = wire.UvarintLen(uint64(len(digests))) + size
			overhead = digestMsgOverhead
		}
		msgs = append(msgs, m)
		addrs = append(addrs, d.addr)
		a.stats.GossipsSent++
		a.stats.GossipBytesSent += int64(overhead + len(a.addr) + payload)
	}
	tr := a.cfg.Transport
	a.mu.Unlock()

	for i, m := range msgs {
		// Best-effort: the epidemic tolerates loss.
		_ = tr.Send(addrs[i], m)
	}
}

// HandleMessage processes one inbound message. Non-gossip messages are
// ignored (the pub/sub layer routes those before they get here).
func (a *Agent) HandleMessage(msg *wire.Message) {
	switch msg.Kind {
	case wire.KindGossip:
		a.handleGossip(msg)
	case wire.KindGossipReply:
		a.handleGossipReply(msg)
	case wire.KindGossipDigest:
		a.handleGossipDigest(msg)
	case wire.KindGossipDelta:
		a.handleGossipDelta(msg)
	default:
	}
}

func (a *Agent) handleGossip(msg *wire.Message) {
	g := msg.Gossip
	a.mu.Lock()
	a.stats.GossipsReceived++
	// Merged rows take effect in routing immediately; the aggregate rows
	// they feed are recomputed once per Tick rather than per message —
	// an eventual-consistency system gains nothing from paying the SQL
	// evaluation on every gossip exchange, and at 10⁵ nodes that cost
	// dominates the simulation.
	a.mergeRowsLocked(g.Rows)

	// Reply with our rows of the tables the two agents share.
	common := CommonAncestor(a.leaf, g.FromZone)
	rows, size := a.sharedRowsLocked(common)
	reply := &wire.Message{
		Kind: wire.KindGossipReply,
		GossipReply: &wire.GossipReply{
			FromZone: a.leaf,
			Rows:     rows,
		},
	}
	a.stats.RowsSent += int64(len(rows))
	a.stats.GossipBytesSent += int64(msgOverhead + len(a.addr) +
		wire.UvarintLen(uint64(len(rows))) + size)
	tr := a.cfg.Transport
	a.mu.Unlock()

	_ = tr.Send(msg.From, reply)
}

func (a *Agent) handleGossipReply(msg *wire.Message) {
	a.mu.Lock()
	a.stats.RepliesReceived++
	a.mergeRowsLocked(msg.GossipReply.Rows)
	a.mu.Unlock()
}

// handleGossipDigest serves the request leg of a delta exchange: diff
// the initiator's digest against local state and reply with the rows the
// initiator is missing or stale on, plus refs of the rows this agent
// wants back.
func (a *Agent) handleGossipDigest(msg *wire.Message) {
	g := msg.GossipDigest
	a.mu.Lock()
	a.stats.GossipsReceived++
	rows, want, stamps, size := a.diffDigestLocked(g.FromZone, g.Digests)
	reply := &wire.Message{
		Kind: wire.KindGossipDelta,
		GossipDelta: &wire.GossipDelta{
			FromZone: a.leaf,
			Rows:     rows,
			Want:     want,
			Stamps:   stamps,
		},
	}
	a.stats.RowsSent += int64(len(rows))
	a.stats.StampsSent += int64(len(stamps))
	a.stats.GossipBytesSent += int64(msgOverhead + len(a.addr) +
		wire.UvarintLen(uint64(len(rows))) + wire.UvarintLen(uint64(len(want))) +
		size + wire.StampsSize(stamps))
	tr := a.cfg.Transport
	a.mu.Unlock()

	_ = tr.Send(msg.From, reply)
}

// handleGossipDelta merges the rows of a delta reply and, if the sender
// asked for rows back, answers with a final one-way delta (empty Want),
// which completes the exchange.
func (a *Agent) handleGossipDelta(msg *wire.Message) {
	g := msg.GossipDelta
	a.mu.Lock()
	a.stats.RepliesReceived++
	a.mergeRowsLocked(g.Rows)
	a.applyStampsLocked(g.Stamps)
	if len(g.Want) == 0 {
		a.mu.Unlock()
		return
	}
	rows, size := a.rowsForRefsLocked(g.Want)
	if len(rows) == 0 {
		a.mu.Unlock()
		return
	}
	final := &wire.Message{
		Kind: wire.KindGossipDelta,
		GossipDelta: &wire.GossipDelta{
			FromZone: a.leaf,
			Rows:     rows,
		},
	}
	a.stats.RowsSent += int64(len(rows))
	// +1: the final delta's empty Want still costs a count byte.
	a.stats.GossipBytesSent += int64(msgOverhead + len(a.addr) +
		wire.UvarintLen(uint64(len(rows))) + 1 + size)
	tr := a.cfg.Transport
	a.mu.Unlock()

	_ = tr.Send(msg.From, final)
}

// sharedRowsLocked collects every row of the tables from `deepest` up to
// the root, along with the estimated wire size of the collected rows
// (computed from the cached encodings, so nothing is re-encoded). When
// deepest is the agent's leaf zone the whole chain is sent.
func (a *Agent) sharedRowsLocked(deepest string) ([]wire.RowUpdate, int) {
	total := 0
	for _, zone := range a.chain {
		if ZoneContains(zone, deepest) {
			total += len(a.tables[zone].rows)
		}
	}
	out := make([]wire.RowUpdate, 0, total)
	size := 0
	for _, zone := range a.chain {
		// Include zone if it is an ancestor-or-equal of the deepest
		// shared zone.
		if !ZoneContains(zone, deepest) {
			continue
		}
		t := a.tables[zone]
		for _, r := range t.rows {
			out = append(out, r.Update(zone))
			size += wire.RowSize(&out[len(out)-1], r.WireAttrsSize())
		}
	}
	return out, size
}

// digestLocked summarizes every row of the tables from `deepest` up to
// the root as RowDigest entries, plus their estimated wire size. Row
// hashes come from the per-row cache, so steady-state digests cost no
// encoding work.
func (a *Agent) digestLocked(deepest string) ([]wire.RowDigest, int) {
	total := 0
	for _, zone := range a.chain {
		if ZoneContains(zone, deepest) {
			total += len(a.tables[zone].rows)
		}
	}
	out := make([]wire.RowDigest, 0, total)
	for _, zone := range a.chain {
		if !ZoneContains(zone, deepest) {
			continue
		}
		t := a.tables[zone]
		for _, r := range t.rows {
			out = append(out, wire.RowDigest{
				Zone:   zone,
				Name:   r.Name,
				Issued: r.Issued,
				Hash:   r.AttrsHash(),
			})
		}
	}
	return out, wire.DigestsSize(out)
}

// diffDigestLocked compares an initiator's digest against local state.
// It returns the rows the initiator needs (missing rows, rows we hold
// fresher with changed content, and the same-timestamp hash-mismatch
// case, where both sides exchange full rows so the encoded tie-break
// converges them), the refs of rows the initiator advertised fresher
// changed copies of, re-issue stamps for rows we hold fresher whose
// bytes the initiator already stores, and the estimated wire size of the
// rows and refs (stamps are sized separately via wire.StampsSize).
//
// The stamp paths are the steady-state optimization: once a cluster
// converges, nearly every row differs between peers only by its
// heartbeat issue time while the attribute bytes — provably identical
// when the digest hashes match — are already on both sides. Shipping a
// ~25-byte stamp (or, when the initiator is the fresher side, re-issuing
// the stored copy locally with no wire traffic at all) instead of the
// full row removes the dominant share of anti-entropy bytes. Signed rows
// are excluded: a re-stamped row carries an issue time its owner never
// signed, so they always travel whole.
func (a *Agent) diffDigestLocked(fromZone string, digests []wire.RowDigest) ([]wire.RowUpdate, []wire.RowRef, []wire.RowDigest, int) {
	common := CommonAncestor(a.leaf, fromZone)
	var rows []wire.RowUpdate
	var want []wire.RowRef
	var stamps []wire.RowDigest
	size := 0

	sendRow := func(zone string, r *wire.SharedRow) {
		rows = append(rows, r.Update(zone))
		size += wire.RowSize(&rows[len(rows)-1], r.WireAttrsSize())
	}
	wantRow := func(zone, name string) {
		want = append(want, wire.RowRef{Zone: zone, Name: name})
		size += wire.RefSize(&want[len(want)-1])
	}
	stampRow := func(zone string, r *wire.SharedRow) {
		stamps = append(stamps, wire.RowDigest{
			Zone: zone, Name: r.Name, Issued: r.Issued, Hash: r.AttrsHash(),
		})
	}

	// digested tracks which of our rows the initiator mentioned, so the
	// second pass can push the rows it has never seen.
	digested := make(map[string]map[string]bool, len(a.chain))

	for i := range digests {
		d := &digests[i]
		t, ok := a.tables[d.Zone]
		if !ok {
			continue // we do not replicate that table
		}
		seen := digested[d.Zone]
		if seen == nil {
			seen = make(map[string]bool)
			digested[d.Zone] = seen
		}
		seen[d.Name] = true
		r, ok := t.rows[d.Name]
		if !ok {
			// The initiator has a row we lack: ask for it.
			wantRow(d.Zone, d.Name)
			continue
		}
		// Leaf member rows take the full stampLag: their owners re-issue
		// every Tick, so replicas may run a couple of rounds stale with
		// no consequence beyond failure-detection slack. Aggregate rows
		// (every non-leaf table) are exempt: their stamps advance with
		// the freshest child heartbeat, so a transiently-wrong aggregate
		// always carries a fresher stamp than lagging replicas of the
		// corrected content and would keep winning exchanges for a full
		// stampLag — stretching chaos-suite self-healing past its round
		// budget. There are only a handful of aggregate rows per table,
		// so stamping them every exchange costs a few dozen bytes.
		lag := a.stampLag
		if d.Zone != a.leaf {
			lag = 0
		}
		switch {
		case r.Issued.After(d.Issued):
			if len(r.Sig) == 0 && r.AttrsHash() == d.Hash {
				// Same bytes both sides, ours fresher. Below the stamp
				// lag the initiator's copy is fresh enough to need
				// nothing at all; past it, a ~25-byte stamp refreshes
				// the replica without shipping the row. Propagating
				// freshness in stampLag-sized jumps instead of every
				// round is what keeps steady-state heartbeat traffic —
				// bytes and allocations both — near zero.
				if r.Issued.Sub(d.Issued) >= lag {
					stampRow(d.Zone, r)
				}
			} else {
				sendRow(d.Zone, r)
			}
		case d.Issued.After(r.Issued):
			if len(r.Sig) == 0 && r.AttrsHash() == d.Hash &&
				!(d.Zone == a.leaf && d.Name == a.name) {
				// The initiator is fresher but holds the very bytes we
				// store: re-issue our copy locally at its stamp. No want
				// ref, no reply bytes, no final-leg row. Below the stamp
				// lag our copy is fresh enough as-is.
				if d.Issued.Sub(r.Issued) >= lag {
					a.restampLocked(t, r, d.Issued)
				}
			} else {
				wantRow(d.Zone, d.Name)
			}
		case r.AttrsHash() != d.Hash:
			// Same issue time, different content: both sides need the
			// full rows to run the deterministic encoded tie-break.
			sendRow(d.Zone, r)
			wantRow(d.Zone, d.Name)
		}
	}

	// Push every shared-table row the initiator did not digest at all.
	for _, zone := range a.chain {
		if !ZoneContains(zone, common) {
			continue
		}
		seen := digested[zone]
		for name, r := range a.tables[zone].rows {
			if !seen[name] {
				sendRow(zone, r)
			}
		}
	}
	return rows, want, stamps, size
}

// restampLocked replaces a stored row with a copy re-issued at `at`,
// carrying the attribute map and the encoding/digest caches over. The
// caller has proven the content identical on both sides (equal attrs
// hash) and the row unsigned; re-stamping never marks a zone dirty —
// it is the wire-free equivalent of a heartbeat re-delivery.
func (a *Agent) restampLocked(t *table, r *wire.SharedRow, at time.Time) {
	row := &wire.SharedRow{
		Name:   r.Name,
		Attrs:  r.Attrs,
		Issued: at,
		Owner:  r.Owner,
	}
	row.AdoptCache(r)
	t.rows[r.Name] = row
	a.stats.StampsApplied++
}

// applyStampsLocked re-issues stored rows from a peer's stamps. Rows
// that expired, drifted (hash mismatch), went stale-side, or are signed
// are skipped — the epidemic's full-row path repairs those on a later
// exchange.
func (a *Agent) applyStampsLocked(stamps []wire.RowDigest) {
	for i := range stamps {
		s := &stamps[i]
		t, ok := a.tables[s.Zone]
		if !ok {
			continue
		}
		if s.Zone == a.leaf && s.Name == a.name {
			continue // authoritative for our own row
		}
		r, ok := t.rows[s.Name]
		if !ok || !s.Issued.After(r.Issued) {
			continue
		}
		if len(r.Sig) != 0 || r.AttrsHash() != s.Hash {
			continue
		}
		a.restampLocked(t, r, s.Issued)
	}
}

// rowsForRefsLocked resolves Want refs to full row updates for the final
// leg of a delta exchange, skipping rows that expired or were superseded
// since the digest was built.
func (a *Agent) rowsForRefsLocked(refs []wire.RowRef) ([]wire.RowUpdate, int) {
	var out []wire.RowUpdate
	size := 0
	for i := range refs {
		ref := &refs[i]
		t, ok := a.tables[ref.Zone]
		if !ok {
			continue
		}
		r, ok := t.rows[ref.Name]
		if !ok {
			continue
		}
		out = append(out, r.Update(ref.Zone))
		size += wire.RowSize(&out[len(out)-1], r.WireAttrsSize())
	}
	return out, size
}

func (a *Agent) mergeRowsLocked(rows []wire.RowUpdate) {
	for i := range rows {
		u := &rows[i]
		t, ok := a.tables[u.Zone]
		if !ok {
			continue // we do not replicate that table
		}
		if u.Zone == a.leaf && u.Name == a.name {
			continue // we are authoritative for our own row
		}
		existing, exists := t.rows[u.Name]
		if exists && existing == u.Shared() {
			continue // re-delivery of the very row we store
		}
		if exists && !u.Issued.After(existing.Issued) {
			if !u.Issued.Equal(existing.Issued) {
				continue
			}
			// Same timestamp. The overwhelmingly common case in steady
			// state is an identical re-delivery — skip it cheaply before
			// paying for the encoded tie-break. Shared-map identity makes
			// the check O(1) when sender and receiver hold the same row.
			if sameAttrs(existing.Attrs, u.Attrs) || existing.Attrs.Equal(u.Attrs) {
				continue
			}
			// Equal timestamps with different content: deterministic
			// tie-break on the encoded attributes so all replicas agree.
			// Both encodings come from (or seed) the shared rows' caches.
			uenc := u.AsShared().Encoding()
			if bytes.Compare(existing.Encoding(), uenc) >= 0 {
				continue
			}
		}
		if a.cfg.VerifyRow != nil {
			if err := a.cfg.VerifyRow(u); err != nil {
				a.stats.RowsRejected++
				continue
			}
		}
		if !exists || !(sameAttrs(existing.Attrs, u.Attrs) || existing.Attrs.Equal(u.Attrs)) {
			// Content changed (timestamp-only refreshes leave the zone
			// clean, so heartbeats do not trigger re-aggregation).
			t.dirty = true
		}
		// Install the sender's shared row by reference: an identical
		// foreign row replicated across the whole system stays one
		// allocation, and its encoding/digest caches are computed once,
		// not once per replica.
		t.rows[u.Name] = u.AsShared()
		a.stats.RowsMerged++
	}
}

func (a *Agent) expireLocked(now time.Time) {
	leafCutoff := now.Add(-a.cfg.FailTimeout)
	aggCutoff := now.Add(-a.cfg.AggFailTimeout)
	for zone, t := range a.tables {
		cutoff := aggCutoff
		if zone == a.leaf {
			cutoff = leafCutoff
		}
		for name, r := range t.rows {
			if zone == a.leaf && name == a.name {
				continue
			}
			if r.Issued.Before(cutoff) {
				if _, virt := r.Attrs[AttrVirtual]; virt {
					// Virtual leaves have no agent reissuing their row;
					// the template is live for the whole run.
					continue
				}
				delete(t.rows, name)
				t.dirty = true
				a.stats.RowsExpired++
			}
		}
	}
}

// recomputeAggregatesLocked recomputes the aggregate row of each zone on
// this agent's chain into its parent's table. The aggregate row's issue
// time is the max issue time of its inputs, which makes the computation
// deterministic across replicas: same inputs produce the same row with the
// same timestamp, so freshest-wins merging converges.
//
// Aggregation is incremental: a zone whose attribute content has not
// changed since its last aggregate (table.dirty clear) skips the program
// evaluation entirely. Steady-state heartbeats only advance issue times,
// so the clean path merely re-stamps the aggregate row this agent owns
// with the new max input time — keeping the failure detector fed without
// a single Eval. Zones iterate deepest-first, so a content change deep in
// the chain marks each ancestor dirty before the ancestor is visited.
func (a *Agent) recomputeAggregatesLocked() {
	for i := len(a.chain) - 1; i >= 1; i-- {
		child := a.chain[i]
		parent := a.chain[i-1]
		ct := a.tables[child]
		if len(ct.rows) == 0 {
			continue
		}
		name := ZoneName(child)
		pt := a.tables[parent]

		var latest time.Time
		for _, r := range ct.rows {
			if r.Issued.After(latest) {
				latest = r.Issued
			}
		}

		if !ct.dirty {
			existing, exists := pt.rows[name]
			switch {
			case exists && existing.Owner == a.addr && existing.AttrsHash() == ct.aggHash:
				// Same content, fresher inputs: re-stamp our aggregate
				// so peers' failure detectors see it refreshed. The Attrs
				// map is unchanged, so the fresh row adopts the old row's
				// caches instead of re-encoding. The hash check keeps this
				// path honest: re-stamping is only sound for content this
				// agent actually computed — a row mutated behind our back
				// must not be relaunched with a fresh stamp and signature.
				if latest.After(existing.Issued) {
					row := &wire.SharedRow{
						Name:   name,
						Attrs:  existing.Attrs,
						Issued: latest,
						Owner:  a.addr,
					}
					row.AdoptCache(existing)
					a.signRowLocked(row, parent)
					pt.rows[name] = row
				}
				continue
			case exists && existing.Owner != a.addr:
				// A peer owns the current aggregate; it refreshes via
				// gossip. Nothing to do for a clean zone.
				continue
			}
			// No aggregate row at all, or our own stored aggregate no
			// longer matches what we computed: fall through to the full
			// path.
		}

		rows := make([]*wire.SharedRow, 0, len(ct.rows))
		for _, r := range ct.rows {
			rows = append(rows, r)
		}
		// Deterministic input order (map iteration is random), compared
		// on cached encodings so no map is re-encoded per comparison.
		sort.Slice(rows, func(x, y int) bool {
			ax, _ := rows[x].Attrs[AttrAddr].AsString()
			ay, _ := rows[y].Attrs[AttrAddr].AsString()
			if ax != ay {
				return ax < ay
			}
			return rows[x].EncLess(rows[y])
		})
		inputs := make([]value.Map, len(rows))
		for x, r := range rows {
			inputs[x] = r.Attrs
		}
		a.stats.AggEvals++
		out, err := a.cfg.Aggregation.Eval(inputs)
		if err != nil {
			continue // a broken program must not kill the agent
		}
		applyPrefixRules(a.cfg.PrefixRules, inputs, out)

		// The zone stays dirty until the stored aggregate row actually
		// reflects this output: a skip below (peer's copy fresher, or a
		// same-stamp tie-break loss) must retry next Tick once input
		// heartbeats advance `latest` past the stored copy — otherwise
		// the losing content would be re-stamped forever by its owner's
		// clean path and never corrected.
		existing, exists := pt.rows[name]
		if exists && existing.Attrs.Equal(out) {
			// Whoever stamped the stored copy, it matches the current
			// content: the zone is clean, and the owner keeps it fresh.
			ct.dirty = false
			ct.aggHash = existing.AttrsHash()
			continue
		}
		if exists && existing.Issued.After(latest) {
			continue // a peer computed from fresher inputs
		}
		candidate := &wire.SharedRow{
			Name:   name,
			Attrs:  out,
			Issued: latest,
			Owner:  a.addr,
		}
		if exists && existing.Issued.Equal(latest) &&
			bytes.Compare(existing.Encoding(), candidate.Encoding()) >= 0 {
			continue // lost the deterministic tie-break at this stamp
		}
		a.signRowLocked(candidate, parent)
		ct.dirty = false
		ct.aggHash = candidate.AttrsHash()
		pt.dirty = true
		pt.rows[name] = candidate
	}
}

// applyPrefixRules aggregates dynamically named attributes into out.
func applyPrefixRules(rules []PrefixRule, inputs []value.Map, out value.Map) {
	for _, rule := range rules {
		merged := make(map[string]value.Value)
		for _, row := range inputs {
			for name, v := range row {
				if len(name) < len(rule.Prefix) || name[:len(rule.Prefix)] != rule.Prefix {
					continue
				}
				acc, ok := merged[name]
				if !ok {
					merged[name] = v
					continue
				}
				merged[name] = mergePrefixValue(rule.Op, acc, v)
			}
		}
		for name, v := range merged {
			if v.IsValid() {
				out[name] = v
			}
		}
	}
}

func mergePrefixValue(op PrefixOp, acc, v value.Value) value.Value {
	switch op {
	case PrefixBoolOr:
		a, _ := acc.AsBool()
		b, _ := v.AsBool()
		return value.Bool(a || b)
	case PrefixSum:
		a, ok1 := acc.AsFloat()
		b, ok2 := v.AsFloat()
		if !ok1 || !ok2 {
			return acc
		}
		return value.Float(a + b)
	case PrefixMin:
		if c, err := acc.Compare(v); err == nil && c > 0 {
			return v
		}
		return acc
	case PrefixMax:
		if c, err := acc.Compare(v); err == nil && c < 0 {
			return v
		}
		return acc
	case PrefixSketch:
		ab, ok1 := acc.RawBytes()
		vb, ok2 := v.RawBytes()
		if !ok1 {
			return v
		}
		if !ok2 {
			return acc
		}
		merged, err := metrics.MergeEncoded(ab, vb)
		if err != nil {
			return acc
		}
		return value.Bytes(merged)
	case PrefixSubgroup:
		ab, ok1 := acc.RawBytes()
		vb, ok2 := v.RawBytes()
		if !ok1 {
			return v
		}
		if !ok2 {
			return acc
		}
		return value.Bytes(bloom.MergeSignatureSets(ab, vb))
	default:
		return acc
	}
}

// pickLeafPartnersLocked selects up to n random gossip partners from the
// agent's leaf table (excluding itself). A joining agent placed into a
// zone whose members it does not know yet has an empty leaf table; it
// falls back to the representatives its parent-table replica lists for
// the zone, whose gossip replies then carry the full leaf table (the
// join path of §8).
func (a *Agent) pickLeafPartnersLocked(n int) []string {
	t := a.tables[a.leaf]
	candidates := make([]string, 0, len(t.rows))
	for name, r := range t.rows {
		if name == a.name {
			continue
		}
		if _, virt := r.Attrs[AttrVirtual]; virt {
			continue // no agent behind a virtual leaf to gossip with
		}
		if addr, ok := r.Attrs[AttrAddr].AsString(); ok {
			candidates = append(candidates, addr)
		}
	}
	if len(candidates) == 0 {
		if parent, ok := ParentZone(a.leaf); ok {
			if pt, ok := a.tables[parent]; ok {
				if row, ok := pt.rows[ZoneName(a.leaf)]; ok {
					if reps, ok := row.Attrs[AttrReps].AsStrings(); ok {
						for _, rep := range reps {
							if rep != a.addr {
								candidates = append(candidates, rep)
							}
						}
					}
				}
			}
		}
	}
	return samplePartners(a.cfg.Rand, candidates, n)
}

// pickZonePartnersLocked selects up to n partner addresses among the
// representatives of sibling child zones in `zone`'s table.
func (a *Agent) pickZonePartnersLocked(zone string, n int) []string {
	child, _ := ChildToward(zone, a.leaf)
	ownName := ZoneName(child)
	t := a.tables[zone]
	// Visit rows in sorted name order: the rep draw below consumes the
	// seeded rand stream, and pairing draws with rows in map order would
	// make identically-seeded runs diverge.
	names := make([]string, 0, len(t.rows))
	for name := range t.rows {
		if name != ownName {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var candidates []string
	for _, name := range names {
		r := t.rows[name]
		if reps, ok := r.Attrs[AttrReps].AsStrings(); ok && len(reps) > 0 {
			candidates = append(candidates, reps[a.cfg.Rand.Intn(len(reps))])
		} else if addr, ok := r.Attrs[AttrAddr].AsString(); ok {
			candidates = append(candidates, addr)
		}
	}
	return samplePartners(a.cfg.Rand, candidates, n)
}

// ScrambleRows is the chaos-injection hook: it corrupts a fraction of the
// agent's replicated rows in place, modeling arbitrary state damage
// (bit-rot, a buggy peer, an attacker replaying mangled gossip). Each
// victim row is replaced by a freshly built copy (the stored row stays
// immutable — peers may share it) whose attributes are mutated while the
// issue stamp, owner, and any signature are carried over unchanged. The
// stale signature makes a scrambled row fail certificate verification at
// every peer it gossips to; without signing, the unchanged stamp means the
// owner's next heartbeat or aggregate recomputation supersedes it, so the
// damage self-heals within a bounded number of rounds either way.
// Additionally the first two victims of each table have their attribute
// maps swapped (a row permutation, the "arbitrary state" of
// self-stabilization testing).
//
// The agent's own leaf row is never scrambled (it is authoritative and
// reissued every Tick regardless) and neither are virtual-leaf template
// rows (nothing reissues those, so damage to them could never heal).
//
// rng must be owned by the caller and drawn in canonical order; zones and
// rows are visited in sorted order so identically seeded runs scramble
// identically. Returns the number of rows scrambled.
func (a *Agent) ScrambleRows(rng *rand.Rand, frac float64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	for _, zone := range a.chain {
		t := a.tables[zone]
		names := make([]string, 0, len(t.rows))
		for name := range t.rows {
			names = append(names, name)
		}
		sort.Strings(names)
		var victims []*wire.SharedRow
		for _, name := range names {
			r := t.rows[name]
			if zone == a.leaf && name == a.name {
				continue
			}
			if _, virt := r.Attrs[AttrVirtual]; virt {
				continue
			}
			if rng.Float64() >= frac {
				continue
			}
			attrs := r.Attrs.Clone()
			keys := make([]string, 0, len(attrs))
			for k := range attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if len(keys) > 0 {
				k := keys[rng.Intn(len(keys))]
				attrs[k] = value.String(fmt.Sprintf("scrambled-%d", rng.Int63()))
			}
			mutated := &wire.SharedRow{
				Name:   r.Name,
				Attrs:  attrs,
				Issued: r.Issued, // stale stamp: the owner's next issue wins
				Owner:  r.Owner,
				Signer: r.Signer, // stale signature: fails verification
				Sig:    r.Sig,
			}
			t.rows[name] = mutated
			victims = append(victims, mutated)
			total++
		}
		if len(victims) >= 2 {
			// Permute: swap the attribute maps of the first two victims.
			// Both are freshly built rows not yet shared with any peer, so
			// mutating them here is still within the COW discipline.
			victims[0].Attrs, victims[1].Attrs = victims[1].Attrs, victims[0].Attrs
		}
		if len(victims) > 0 {
			t.dirty = true
		}
	}
	if total > 0 {
		a.recomputeAggregatesLocked()
	}
	return total
}

// FingerprintTables digests the attribute content of every replicated
// table: zones in chain order, rows in sorted name order, each mixed as
// (zone, name, canonical-attrs hash). Issue stamps, owners, and signatures
// are deliberately excluded — two runs that converged to the same content
// through different gossip histories must fingerprint equal. This is the
// convergence oracle of the chaos suite: a scrambled run has self-healed
// exactly when its fingerprint matches a never-scrambled twin's.
func (a *Agent) FingerprintTables() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mixByte := func(b byte) { h ^= uint64(b); h *= prime64 }
	mixString := func(s string) {
		for i := 0; i < len(s); i++ {
			mixByte(s[i])
		}
		mixByte(0xff) // separator
	}
	mixUint64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			mixByte(byte(v >> (8 * i)))
		}
	}
	for _, zone := range a.chain {
		t := a.tables[zone]
		names := make([]string, 0, len(t.rows))
		for name := range t.rows {
			names = append(names, name)
		}
		sort.Strings(names)
		mixString(zone)
		for _, name := range names {
			mixString(name)
			mixUint64(fingerprintAttrsHash(t.rows[name]))
		}
	}
	return h
}

// fingerprintAttrsHash returns the row's attrs hash with sys$health
// attributes excluded. Health telemetry (retry counters, latency
// sketches) legitimately diverges between runs whose delivery content
// converged — a chaos run and its clean twin — so it must not feed the
// convergence oracle. Rows without health attrs (the overwhelming
// majority, and every row when health telemetry is off) use the row's
// cached hash unchanged, so the exclusion costs nothing where it does
// not apply.
func fingerprintAttrsHash(r *wire.SharedRow) uint64 {
	clean := true
	for k := range r.Attrs {
		if strings.HasPrefix(k, HealthPrefix) {
			clean = false
			break
		}
	}
	if clean {
		return r.AttrsHash()
	}
	filtered := make(value.Map, len(r.Attrs))
	for k, v := range r.Attrs {
		if !strings.HasPrefix(k, HealthPrefix) {
			filtered[k] = v
		}
	}
	// FNV-64a over the canonical encoding, mirroring SharedRow.AttrsHash
	// so a row that merely lacks health attrs hashes identically through
	// either path.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range filtered.AppendBinary(nil) {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// samplePartners picks up to n distinct elements of candidates, sorted
// first for determinism (map iteration order is random).
func samplePartners(rng *rand.Rand, candidates []string, n int) []string {
	if len(candidates) == 0 {
		return nil
	}
	sort.Strings(candidates)
	if n >= len(candidates) {
		return candidates
	}
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	return candidates[:n]
}
