package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestOracleFlagsDuplicateMissingAndWrongContent(t *testing.T) {
	or := newOracle()
	at := time.Unix(0, 0)
	or.expect("p/a#0", 7, []int{1, 2, 3}, at, phaseSteady)

	or.deliver("p/a#0", 1, 7, at.Add(time.Millisecond)) // correct
	or.deliver("p/a#0", 1, 7, at.Add(time.Millisecond)) // duplicate
	or.deliver("p/a#0", 2, 8, at.Add(time.Millisecond)) // wrong content
	or.deliver("p/a#0", 4, 7, at.Add(time.Millisecond)) // not a matching subscriber
	or.deliver("p/b#0", 1, 7, at.Add(time.Millisecond)) // never published
	// Subscriber 3 never receives the item.

	st := or.tally(phaseSteady)
	if st.Expected != 3 || st.Delivered != 1 {
		t.Fatalf("expected/delivered = %d/%d, want 3/1", st.Expected, st.Delivered)
	}
	if st.Duplicates != 1 || st.Corrupt != 1 || st.Strays != 1 {
		t.Fatalf("dup/corrupt/stray = %d/%d/%d, want 1/1/1", st.Duplicates, st.Corrupt, st.Strays)
	}
	if st.Missing() != 2 {
		t.Fatalf("missing = %d, want 2 (subscriber 2 got only a corrupt copy, 3 nothing)", st.Missing())
	}
	if tot := or.total(); tot.Failures() != 4 {
		t.Fatalf("failures = %d, want 4 (duplicate, corrupt, two strays)", tot.Failures())
	}
	if st.Ratio() > 1 {
		t.Fatalf("ratio %v above 1", st.Ratio())
	}
}

func TestOracleCountsPublishErrors(t *testing.T) {
	or := newOracle()
	or.expect("p/a#0", 1, []int{1, 2}, time.Unix(0, 0), phaseSteady)
	or.publishFailed("p/a#0")
	st := or.tally(phaseSteady)
	if st.Expected != 0 || st.PublishErrors != 1 || st.Failures() != 1 {
		t.Fatalf("after a failed publish: %+v", st)
	}
}

func TestModuleOfChargesInnermostProgramFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"encoding/xml.(*Decoder).Token", "newswire/internal/news.UnmarshalNITF",
			"newswire/internal/pubsub.DecodeItem", "newswire/internal/core.(*Node).ingest"}, "news"},
		{[]string{"runtime.memmove", "newswire/internal/sim/chaos.Run"}, "sim"},
		{[]string{"newswire/internal/cert.Sign"}, "other"},
		{[]string{"runtime.mallocgc", "main.(*oracle).deliver", "newswire/internal/core.(*Node).ingest"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "runtime.other"},
	}
	for _, c := range cases {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// tinyRun runs one workload at test size and returns the result line.
func tinyRun(t *testing.T, name string, traced bool) (map[string]any, string) {
	t.Helper()
	var out bytes.Buffer
	cfg := runConfig{seed: 3, seconds: 1, setups: 1, nodes: 128}
	if err := runAndReport(&out, name, cfg, traced); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", name, err)
	}
	return res, out.String()
}

func checkMetrics(t *testing.T, name string, res map[string]any, names []string, unit func(string) string) {
	t.Helper()
	if res["correct"] != true || res["failed"].(float64) != 0 || res["attempted"].(float64) < 1 {
		t.Errorf("%s: correct=%v attempted=%v failed=%v", name, res["correct"], res["attempted"], res["failed"])
	}
	ms := res["metrics"].(map[string]any)
	if len(ms) != len(names) {
		t.Errorf("%s: %d metrics, want %d", name, len(ms), len(names))
	}
	for _, n := range names {
		m, ok := ms[n].(map[string]any)
		if !ok {
			t.Errorf("%s: metric %s missing", name, n)
			continue
		}
		if m["unit"] != unit(n) {
			t.Errorf("%s: %s unit %v, want %s", name, n, m["unit"], unit(n))
		}
	}
}

func TestTinyRunsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"live-fanout", "sim-gossip", "sim-publish"} {
		res, _ := tinyRun(t, name, false)
		checkMetrics(t, name, res, e2eOrder, func(n string) string { return e2eUnits[n] })
		for _, n := range e2eOrder {
			v := res["metrics"].(map[string]any)[n].(map[string]any)["value"].(float64)
			if !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, n, v)
			}
		}
		traced, out := tinyRun(t, name, true)
		checkMetrics(t, name, traced, layerNames(), layerUnit)
		if !strings.Contains(out, "# tracing overhead setup_s") {
			t.Errorf("%s: traced run printed no tracing overhead", name)
		}
	}
}

func TestSelfTimesSumToTracedCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a workload")
	}
	res, err := runGossip(runConfig{seed: 5, seconds: 3, setups: 1, nodes: 256, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	sum, cpu := selfSum(res), res.profiledCPU
	if !(cpu > 0) || math.Abs(sum-cpu) > 0.15*cpu {
		t.Fatalf("per-module self_us sum %.2f, profiled CPU per unit %.2f: off by more than 15%%", sum, cpu)
	}
}
