package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"newswire/internal/news"
)

// oracle holds what the benchmark published and which subscribers must
// receive each item, and checks every delivery against it. Each
// (item, subscriber) pair counts at most once, so delivered never exceeds
// expected; anything else a subscriber receives is a failure.
type oracle struct {
	mu     sync.Mutex
	items  map[string]*wantItem
	phases map[int]*tally
}

type wantItem struct {
	digest uint64
	subs   map[int]bool // expected subscriber -> delivered yet
	sched  time.Time
	phase  int
}

// tally is one phase's account: expected pairs, distinct correct
// deliveries and each kind of failure, plus the latency of every correct
// delivery measured from the item's scheduled send time.
type tally struct {
	Expected, Delivered         int64
	Duplicates, Strays, Corrupt int64
	PublishErrors               int64
	Latencies                   []float64 // ms
}

// Failures counts every delivery or publish that went wrong.
func (t tally) Failures() int64 {
	return t.Duplicates + t.Strays + t.Corrupt + t.PublishErrors
}

// Missing counts expected pairs that were never delivered.
func (t tally) Missing() int64 { return t.Expected - t.Delivered }

// Ratio is distinct correct deliveries over expected pairs.
func (t tally) Ratio() float64 {
	if t.Expected == 0 {
		return 0
	}
	return float64(t.Delivered) / float64(t.Expected)
}

// strayPhase collects deliveries of items the oracle never saw published.
const strayPhase = -1

func newOracle() *oracle {
	return &oracle{items: make(map[string]*wantItem), phases: make(map[int]*tally)}
}

func (o *oracle) tallyLocked(phase int) *tally {
	t := o.phases[phase]
	if t == nil {
		t = &tally{}
		o.phases[phase] = t
	}
	return t
}

// expect registers a published item, its content digest and the
// subscribers that must receive it. Call it before publishing so no
// delivery can arrive first.
func (o *oracle) expect(key string, digest uint64, subs []int, sched time.Time, phase int) {
	w := &wantItem{digest: digest, subs: make(map[int]bool, len(subs)), sched: sched, phase: phase}
	for _, s := range subs {
		w.subs[s] = false
	}
	o.mu.Lock()
	o.items[key] = w
	o.tallyLocked(phase).Expected += int64(len(subs))
	o.mu.Unlock()
}

// publishFailed withdraws an item whose publish returned an error.
func (o *oracle) publishFailed(key string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	w := o.items[key]
	if w == nil {
		return
	}
	t := o.tallyLocked(w.phase)
	t.Expected -= int64(len(w.subs))
	t.PublishErrors++
	delete(o.items, key)
}

// deliver records that subscriber sub received the item key with the
// given content digest at time at.
func (o *oracle) deliver(key string, sub int, digest uint64, at time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	w := o.items[key]
	if w == nil {
		o.tallyLocked(strayPhase).Strays++
		return
	}
	t := o.tallyLocked(w.phase)
	got, want := w.subs[sub]
	switch {
	case !want:
		t.Strays++
	case digest != w.digest:
		t.Corrupt++
	case got:
		t.Duplicates++
	default:
		w.subs[sub] = true
		t.Delivered++
		t.Latencies = append(t.Latencies, float64(at.Sub(w.sched).Nanoseconds())/1e6)
	}
}

// tally returns a copy of one phase's account with sorted latencies.
func (o *oracle) tally(phase int) tally {
	o.mu.Lock()
	defer o.mu.Unlock()
	t := *o.tallyLocked(phase)
	t.Latencies = append([]float64(nil), t.Latencies...)
	sort.Float64s(t.Latencies)
	return t
}

// sum adds up the given phases' accounts, latencies sorted.
func (o *oracle) sum(phases ...int) tally {
	var s tally
	for _, p := range phases {
		t := o.tally(p)
		s.Expected += t.Expected
		s.Delivered += t.Delivered
		s.Duplicates += t.Duplicates
		s.Strays += t.Strays
		s.Corrupt += t.Corrupt
		s.PublishErrors += t.PublishErrors
		s.Latencies = append(s.Latencies, t.Latencies...)
	}
	sort.Float64s(s.Latencies)
	return s
}

// total sums every phase, stray deliveries included.
func (o *oracle) total() tally {
	o.mu.Lock()
	defer o.mu.Unlock()
	var sum tally
	for _, t := range o.phases {
		sum.Expected += t.Expected
		sum.Delivered += t.Delivered
		sum.Duplicates += t.Duplicates
		sum.Strays += t.Strays
		sum.Corrupt += t.Corrupt
		sum.PublishErrors += t.PublishErrors
	}
	return sum
}

// counts reports the phases' distinct correct deliveries and expected
// pairs so far.
func (o *oracle) counts(phases ...int) (delivered, expected int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range phases {
		t := o.tallyLocked(p)
		delivered += t.Delivered
		expected += t.Expected
	}
	return delivered, expected
}

// missingPairs describes up to max undelivered (item, subscriber) pairs
// of the phases, with each item's scheduled send time.
func (o *oracle) missingPairs(max int, phases ...int) string {
	want := map[int]bool{}
	for _, p := range phases {
		want[p] = true
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []string
	for key, w := range o.items {
		if !want[w.phase] {
			continue
		}
		for sub, got := range w.subs {
			if !got && len(out) < max {
				out = append(out, fmt.Sprintf("%s to node %d (due %s)", key, sub, w.sched.Format("15:04:05.000")))
			}
		}
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

// itemDigest fingerprints everything a subscriber reads from an item.
func itemDigest(it *news.Item) uint64 {
	h := fnv.New64a()
	for _, s := range []string{it.Publisher, it.ID, strconv.Itoa(it.Revision),
		it.Headline, it.Byline, it.Abstract, it.Body, strconv.Itoa(it.Urgency)} {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	for _, s := range it.Subjects {
		h.Write([]byte(s))
		h.Write([]byte{1})
	}
	return h.Sum64()
}

// bytesDigest fingerprints an encoded payload.
func bytesDigest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func subjectSet(subjects []string) map[string]bool {
	set := make(map[string]bool, len(subjects))
	for _, s := range subjects {
		set[s] = true
	}
	return set
}

// matchesAny reports whether the item carries any of the subjects.
func matchesAny(subjects []string, want map[string]bool) bool {
	for _, s := range subjects {
		if want[s] {
			return true
		}
	}
	return false
}
