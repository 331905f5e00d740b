package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the host's CPU time counters from /proc/stat, in ticks.
type cpuStat struct{ total, steal uint64 }

// readCPUStat returns zero counters where /proc/stat is unreadable.
func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var s cpuStat
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		s.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			s.steal = v
		}
	}
	return s
}

// stealSince describes the share of host CPU time stolen since s.
func (s cpuStat) stealSince() string {
	now := readCPUStat()
	if now.total <= s.total {
		return "unknown"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(now.steal-s.steal)/float64(now.total-s.total))
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// liveHeapBytes forces a full collection and returns the heap it found
// reachable: what the workload retains, free of GC pacing noise.
func liveHeapBytes() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// phase measures one timed phase: wall time, process CPU and, when
// traced, a CPU profile that attributes self time to program modules.
type phase struct {
	start   time.Time
	cpu0    time.Duration
	profBuf *bytes.Buffer
	// exWall and exCPU are the benchmark's own bookkeeping, taken out of
	// Wall and CPU.
	exWall, exCPU time.Duration

	Wall time.Duration
	CPU  time.Duration
	// Heap is the heap still reachable when the phase ends.
	Heap    uint64
	Profile map[string]time.Duration // module -> sampled CPU; traced only
}

func startPhase(traced bool) (*phase, error) {
	p := &phase{}
	if traced {
		p.profBuf = &bytes.Buffer{}
		if err := pprof.StartCPUProfile(p.profBuf); err != nil {
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	p.start = time.Now()
	p.cpu0 = cpuTime()
	return p, nil
}

// exclude runs fn, the benchmark's own work, and keeps its wall and CPU
// time out of the phase's figures. The profile still sees it, as bench.
func (p *phase) exclude(fn func()) {
	w0, c0 := time.Now(), cpuTime()
	fn()
	p.exWall += time.Since(w0)
	p.exCPU += cpuTime() - c0
}

func (p *phase) end() error {
	p.Wall = time.Since(p.start) - p.exWall
	p.CPU = cpuTime() - p.cpu0 - p.exCPU
	if p.profBuf != nil {
		pprof.StopCPUProfile()
	}
	p.Heap = liveHeapBytes()
	if p.profBuf != nil {
		prof, err := moduleSelfTime(p.profBuf.Bytes())
		if err != nil {
			return fmt.Errorf("read cpu profile: %w", err)
		}
		p.Profile = prof
	}
	return nil
}

// Modules whose self time the traced run reports, in report order. The
// names are the packages under newswire/internal; "bench" is this
// program's own code (generator, oracle, wrappers) and "other" any
// internal package not listed.
var profileModules = []string{
	"news", "wire", "transport", "core", "multicast", "pubsub", "query",
	"bloom", "cache", "astrolabe", "sqlagg", "sim", "value", "vtime",
	"metrics", "trace", "workload", "flow", "other", "bench",
	"runtime.gc", "runtime.other",
}

const modulePrefix = "newswire/internal/"

// moduleOf charges one stack (innermost frame first) to a module: the
// innermost newswire/internal/<module> frame, or this program's own frame
// if that comes first, so standard-library work is folded into the
// module that called it. Stacks with neither go to the runtime, split
// into garbage collection and the rest.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			mod := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				mod = rest[:i]
			}
			for _, m := range profileModules {
				if m == mod {
					return mod
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.markroot"),
			strings.HasPrefix(fn, "runtime.scanobject"), strings.HasPrefix(fn, "runtime.sweepone"):
			return "runtime.gc"
		}
	}
	return "runtime.other"
}

// moduleSelfTime decodes a gzipped pprof CPU profile and sums the sampled
// CPU time per module. It reads only the fields it needs from the
// profile.proto message (samples, locations, functions, strings), so the
// benchmark needs nothing beyond the standard library.
func moduleSelfTime(gz []byte) (map[string]time.Duration, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function -> string index
		strs      []string
		typeUnits []int64 // string index of each sample type's unit
	)
	err = walkProto(raw, func(field int, wt int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type; the CPU value is the one in nanoseconds
			var unit int64
			if err := walkProto(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 2 {
					unit = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typeUnits = append(typeUnits, unit)
		case 2:
			var s sample
			if err := walkProto(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, b)
				case 2:
					for _, x := range appendVarints(nil, wt, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := walkProto(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkProto(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := walkProto(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	valueIdx := -1
	for i, u := range typeUnits {
		if u >= 0 && int(u) < len(strs) && strs[u] == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile has no nanoseconds sample type")
	}
	out := make(map[string]time.Duration, len(profileModules))
	var stack []string
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			continue
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out[moduleOf(stack)] += time.Duration(s.values[valueIdx])
	}
	return out, nil
}

// walkProto calls fn for every field of one protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the bytes.
func walkProto(buf []byte, fn func(field, wireType int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		buf = buf[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = uvarint(buf)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short protobuf fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad protobuf length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short protobuf fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wt)
		}
		if err := fn(field, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wireType int, v uint64, b []byte) []uint64 {
	if wireType == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// roundClock times each round of a simulated workload. Throughput and CPU
// per unit are taken from the median round, so a host stall that lasts a
// few rounds moves neither.
type roundClock struct {
	w0        time.Time
	c0        time.Duration
	wall, cpu []float64 // per unit of work, seconds and µs
}

func (r *roundClock) start() { r.w0, r.c0 = time.Now(), cpuTime() }

// stop ends a round that did units of work.
func (r *roundClock) stop(units float64) {
	if units <= 0 {
		return
	}
	r.wall = append(r.wall, time.Since(r.w0).Seconds()/units)
	r.cpu = append(r.cpu, float64((cpuTime()-r.c0).Nanoseconds())/1e3/units)
}

// perSecond is the median round's units of work per wall second.
func (r *roundClock) perSecond() float64 { return 1 / median(r.wall) }

// cpuPerUnit is the median round's CPU µs per unit of work.
func (r *roundClock) cpuPerUnit() float64 { return median(r.cpu) }

// layerTimer accumulates call durations for one wrapped layer boundary.
type layerTimer struct {
	mu    sync.Mutex
	n     int64
	total time.Duration
}

func (t *layerTimer) add(d time.Duration) {
	t.mu.Lock()
	t.n++
	t.total += d
	t.mu.Unlock()
}

// meanUS returns the mean call time in microseconds (0 when never called).
func (t *layerTimer) meanUS() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == 0 {
		return 0
	}
	return float64(t.total.Nanoseconds()) / 1e3 / float64(t.n)
}
