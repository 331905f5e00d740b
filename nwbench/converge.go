package main

import (
	"fmt"
	"strings"
	"time"

	"newswire/internal/astrolabe"
	"newswire/internal/core"
	"newswire/internal/news"
)

// Set-up ends only when it has provably converged: every node's zone
// tables hold every row they will ever hold, and then one batch of probe
// items, one per subject, has reached every subscriber of each subject.
// A single probe on all subjects can pass while a zone's aggregated
// summary still lacks one member's subjects, which later loses items.

// probeBatch returns one probe item per standard subject, at the highest
// urgency so urgency thresholds never exclude a subscriber.
func probeBatch(batch int, at time.Time) []*news.Item {
	out := make([]*news.Item, 0, len(news.StandardSubjects))
	for i, s := range news.StandardSubjects {
		out = append(out, &news.Item{
			Publisher: "bench-probe", ID: fmt.Sprintf("probe-%04d-%02d", batch, i),
			Headline: "probe", Body: "probe", Subjects: []string{s},
			Urgency: news.UrgencyMax, Published: at,
		})
	}
	return out
}

// tableSizes computes how many rows each zone's table must hold once
// membership has converged: one per member in a leaf zone, one per child
// zone above it.
func tableSizes(nodes []*core.Node) map[string]int {
	children := map[string]map[string]bool{}
	add := func(zone, child string) {
		if children[zone] == nil {
			children[zone] = map[string]bool{}
		}
		children[zone][child] = true
	}
	for _, n := range nodes {
		if n == nil {
			continue
		}
		leaf := n.ZonePath()
		add(leaf, n.Name())
		parts := strings.Split(strings.TrimPrefix(leaf, "/"), "/")
		zone := astrolabe.RootZone
		for _, p := range parts {
			add(zone, p)
			zone = astrolabe.JoinZone(zone, p)
		}
	}
	out := make(map[string]int, len(children))
	for z, c := range children {
		out[z] = len(c)
	}
	return out
}

// tablesComplete reports whether every node holds a full table for every
// zone on its chain.
func tablesComplete(nodes []*core.Node, sizes map[string]int) bool {
	for _, n := range nodes {
		if n == nil {
			continue
		}
		for _, zone := range n.Agent().Chain() {
			rows, ok := n.Agent().Table(zone)
			if !ok || len(rows) < sizes[zone] {
				return false
			}
		}
	}
	return true
}

// awaitSimProbe gossips until the tables are complete, then publishes
// probe batches from the publisher until one batch reaches every
// subscriber that matching names.
func awaitSimProbe(c *core.Cluster, publisher int, matching func(*news.Item) []int) error {
	sizes := tableSizes(c.Nodes)
	rounds := 0
	for ; !tablesComplete(c.Nodes, sizes); rounds++ {
		if rounds == simSetupRounds {
			return fmt.Errorf("sim set-up: zone tables incomplete after %d rounds", rounds)
		}
		c.RunRounds(1)
	}
	for batch := 1; rounds < simSetupRounds; batch++ {
		probes := probeBatch(batch, c.Eng.Now())
		for _, it := range probes {
			if err := c.Nodes[publisher].PublishItem(it, "", ""); err != nil {
				return fmt.Errorf("publish probe: %w", err)
			}
		}
		for k := 0; k < 5; k++ {
			c.RunRounds(1)
			rounds++
			if batchDelivered(c.Nodes, probes, matching) {
				return nil
			}
		}
	}
	return fmt.Errorf("sim set-up: no probe batch reached every subscriber in %d rounds", rounds)
}

func batchDelivered(nodes []*core.Node, probes []*news.Item, matching func(*news.Item) []int) bool {
	for _, it := range probes {
		key := it.Key()
		for _, i := range matching(it) {
			if !nodes[i].Cache().Has(key) {
				return false
			}
		}
	}
	return true
}
