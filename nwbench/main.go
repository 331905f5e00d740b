// Command nwbench is the NewsWire benchmark. It runs one seeded workload
// in this process, checks every delivery against an oracle, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// profiled run) as one JSON object on the last line of its output.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash nwbench/run.sh --workload sim-gossip --seed 1 --seconds 20 --trace 0
//
// The workloads, and why each was chosen:
//
//   - live-fanout: 16 nodes on loopback TCP; the only workload through
//     wire, transport and news decode, while gossip is nearly idle.
//   - sim-gossip: 2,048 simulated nodes replacing 1% of subscriptions per
//     round with no publishing; it loads the control plane (astrolabe,
//     sqlagg, bloom, sim).
//   - sim-publish: 1,024 simulated nodes with predicate subscriptions on a
//     lossy WAN model and reliable forwarding; it loads the routing plane
//     (multicast, pubsub, query, cache, retransmit).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// runConfig is one run's parameters.
type runConfig struct {
	seed    int64
	seconds int
	traced  bool
	// setups is how many times the workload is set up; setup_s is the
	// median and the last set-up is measured.
	setups int
	// nodes overrides a simulated workload's node count (tests only).
	nodes int
}

type benchWorkload struct {
	run func(runConfig) (*result, error)
	// setups per run. Live set-up waits on wall-clock gossip rounds and
	// varies by a round, so it takes the median of more set-ups.
	setups int
}

var workloads = map[string]benchWorkload{
	"live-fanout": {runLive, 5},
	"sim-gossip":  {runGossip, 3},
	"sim-publish": {runPublish, 3},
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nwbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nwbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: live-fanout, sim-gossip or sim-publish")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 = also run profiled and print per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	return runAndReport(out, *name, runConfig{seed: *seed, seconds: *seconds, setups: wl.setups}, *traced == 1)
}

// runAndReport runs one workload, untraced and then, when traced is set,
// again under the profiler, and prints the run record and the result line.
func runAndReport(out io.Writer, name string, cfg runConfig, traced bool) error {
	wl := workloads[name]
	fmt.Fprintf(out, "# host cores=%d gomaxprocs=%d go=%s workload=%s seed=%d seconds=%d traced=%v setups=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), name, cfg.seed, cfg.seconds, traced, cfg.setups)

	steal0 := readCPUStat()
	res, err := wl.run(cfg)
	if err != nil {
		return err
	}
	printE2E(out, "untraced", res)
	// A shared host's lost CPU shows here; it moves every wall-clock metric.
	fmt.Fprintf(out, "# host steal during the untraced run: %s\n", steal0.stealSince())
	if !traced {
		return printJSON(out, res.correct, res.attempted, res.failed, res.e2e, e2eUnits, e2eOrder)
	}

	cfg.traced = true
	tr, err := wl.run(cfg)
	if err != nil {
		return err
	}
	printE2E(out, "traced", tr)
	for _, m := range e2eOrder {
		fmt.Fprintf(out, "# tracing overhead %s: traced-untraced = %+.4f %s\n",
			m, tr.e2e[m]-res.e2e[m], e2eUnits[m])
	}
	fmt.Fprintf(out, "# self_us sum = %.3f us per unit; process CPU over the profiled phase = %.3f us per unit\n",
		selfSum(tr), tr.profiledCPU)
	units := map[string]string{}
	for _, n := range layerNames() {
		units[n] = layerUnit(n)
	}
	return printJSON(out, res.correct && tr.correct, res.attempted+tr.attempted,
		res.failed+tr.failed, tr.layer, units, layerNames())
}

// selfSum adds up the per-module self times of a traced run.
func selfSum(r *result) float64 {
	var sum float64
	for _, m := range profileModules {
		sum += r.layer[m+".self_us"]
	}
	return sum
}

func printE2E(out io.Writer, label string, r *result) {
	for _, m := range e2eOrder {
		fmt.Fprintf(out, "# %s %s = %.4f %s (%s)\n", label, m, r.e2e[m], e2eUnits[m], r.samples[m])
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "# %s %s\n", label, n)
	}
	fmt.Fprintf(out, "# %s correct=%v attempted=%d failed=%d\n", label, r.correct, r.attempted, r.failed)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printJSON writes the result line. Every listed metric is present; one
// a run did not produce reads 0.
func printJSON(out io.Writer, correct bool, attempted, failed int64, vals map[string]float64,
	units map[string]string, names []string) error {
	if attempted < 1 {
		attempted = 1
	}
	ms := make(map[string]metricOut, len(names))
	for _, n := range names {
		ms[n] = metricOut{Value: vals[n], Unit: units[n]}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, attempted, failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
