// Command perfbench is eimdb's end-to-end serving benchmark.  It builds
// a workload's tables from a seed through the public engine API, puts
// them behind internal/server with eimdb-serve's defaults and a real
// monotonic clock, and drives pre-generated JSON requests through
// Server.ServeHTTP from two closed-loop clients.  It checks every reply
// and prints the metrics by name with their units; the last line of its
// output is one JSON object.
//
//	perfbench --workload analytics|lookup|mixed --seed N --seconds S --trace 0|1
//
// --trace 1 runs the traced per-layer variant.  See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/server"
)

// params is one run's configuration.  Real runs use fullRows; the
// smoke tests shrink rows and seconds.
type params struct {
	workload string
	seed     uint64
	rows     int
	seconds  float64
	trace    bool
	setups   int // set-ups per run; setup_s is their median
}

var workloads = []string{"analytics", "lookup", "mixed"}

func main() {
	p := params{rows: fullRows, setups: 3}
	flag.StringVar(&p.workload, "workload", "", "workload: analytics, lookup or mixed")
	flag.Uint64Var(&p.seed, "seed", 1, "workload seed")
	flag.Float64Var(&p.seconds, "seconds", 20, "length of the timed region in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()
	if !slices.Contains(workloads, p.workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want analytics, lookup or mixed)\n", p.workload)
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traceFlag)
		os.Exit(2)
	}
	if p.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	p.trace = *traceFlag == 1
	res, err := run(p, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is what a run prints.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

type metric struct {
	name  string
	unit  string
	value float64
	note  string // sample count or source, for the human-readable lines
}

// tally folds replies into the result's counts.
func (r *result) tally(rs ...reply) {
	for _, rp := range rs {
		r.attempted++
		if !rp.ok {
			r.failed++
		}
		if rp.bad {
			r.correct = false
		}
	}
}

func (r *result) print(w io.Writer) error {
	m := make(map[string]any, len(r.metrics))
	for _, x := range r.metrics {
		fmt.Fprintf(w, "  %-28s %14.6g %-8s %s\n", x.name, x.value, x.unit, x.note)
		m[x.name] = struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{x.value, x.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{r.correct, r.attempted, r.failed, m})
	if err != nil {
		return fmt.Errorf("rendering result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// run executes one benchmark run: request generation, the repeated
// timed set-up (on an untraced run, the set-ups thrown away carry parts
// of the write probe), the expected rows, then either the untraced
// measurement or the traced per-layer run.
func run(p params, log io.Writer) (*result, error) {
	fmt.Fprintf(log, "perfbench: workload=%s seed=%d rows=%d seconds=%g trace=%t GOMAXPROCS=%d\n",
		p.workload, p.seed, p.rows, p.seconds, p.trace, runtime.GOMAXPROCS(0))
	s := genStreams(p.workload, p.seed, p.rows, p.seconds)
	res := &result{correct: true}

	var b *bench
	var probeLat []float64
	setups := make([]float64, 0, p.setups)
	for i := 0; i < p.setups; i++ {
		b = nil // the previous set-up is garbage before the next is timed
		runtime.GC()
		next, warm, took, err := setup(p, s.warm)
		if err != nil {
			return nil, err
		}
		b = next
		setups = append(setups, took.Seconds())
		if i == p.setups-1 {
			res.tally(warm...)
		} else if !p.trace && i < len(s.probe)-1 {
			// A set-up that is thrown away carries a part of the
			// write probe, so the probe spans the whole run.
			probeLat = append(probeLat, b.writeProbe(s.probe[i], res)...)
		}
	}
	if err := b.fillWants(s.timed); err != nil {
		return nil, err
	}
	setupS := median(setups)

	if p.trace {
		return res, traced(p, b, s.timed, res)
	}
	return res, measure(p, b, &s, setupS, probeLat, res)
}

// setup is the timed set-up: build and load the tables, construct the
// server, and warm it with the warm-up requests from one client.
func setup(p params, warm []request) (*bench, []reply, time.Duration, error) {
	start := time.Now()
	b, err := newBench(p)
	if err != nil {
		return nil, nil, 0, err
	}
	replies := make([]reply, 0, len(warm))
	for i := range warm {
		replies = append(replies, b.send(&warm[i]))
	}
	return b, replies, time.Since(start), nil
}

// newBench builds and loads the workload's tables and puts them behind
// a new server.
func newBench(p params) (*bench, error) {
	eng, err := buildEngine(p.workload, p.seed, p.rows)
	if err != nil {
		return nil, fmt.Errorf("building %s tables: %w", p.workload, err)
	}
	clk := newClock()
	return &bench{eng: eng, srv: server.New(eng, serverConfig(), clk), clk: clk, rows: p.rows}, nil
}

// measure is the untraced run: the timed region from two clients, the
// heap after it and the final count check, then, on read-only
// workloads, the last part of the write probe on a fresh copy of the
// tables.  probeLat holds the latencies of the probe's earlier parts.
func measure(p params, b *bench, s *streams, setupS float64, probeLat []float64, res *result) error {
	dur := time.Duration(p.seconds * float64(time.Second))
	runtime.GC()
	ph := b.drive(s.timed, 2, dur, nil)
	res.tally(ph.replies...)
	if ph.exhausted {
		fmt.Fprintf(os.Stderr, "perfbench: the timed region used all %d generated requests before %v\n", len(s.timed), dur)
	}
	reads, writes := latencies(ph.replies)
	var okN int
	var joules float64
	var dram uint64
	for _, rp := range ph.replies {
		if rp.ok {
			okN++
			joules += rp.joules
			dram += rp.dram
		}
	}
	n := float64(len(ph.replies))
	rps := float64(okN) / ph.elapsed.Seconds()
	cpu := ratio(float64(ph.cpu)/1e6, n)
	s.timed, ph.replies = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	res.tally(b.countCheck())

	writeNote := fmt.Sprintf("n=%d timed writes", len(writes))
	if len(s.probe) > 0 {
		// The server that served the reads keeps every ticket it
		// settled (on lookup, hundreds of MB), and marking that heap
		// would set the writes' tail.  The probe's last part runs on
		// fresh tables behind a fresh server instead.
		b = nil
		runtime.GC()
		pb, err := newBench(p)
		if err != nil {
			return err
		}
		writes = append(probeLat, pb.writeProbe(s.probe[len(s.probe)-1], res)...)
		writeNote = fmt.Sprintf("n=%d write-probe writes, one client on fresh tables, in %d parts over the run", len(writes), len(s.probe))
	}

	// Latency percentiles pool the whole timed region (and the whole
	// write probe), and throughput and CPU time are whole-region
	// ratios: they average over the tens of seconds in which a shared
	// machine's speed drifts, where a median over short stretches
	// would pick one stretch and follow that drift.
	readNote := fmt.Sprintf("n=%d reads", len(reads))
	res.metrics = []metric{
		{"setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups", p.setups)},
		{"throughput_rps", "1/s", rps, fmt.Sprintf("%d ok in %.2fs", okN, ph.elapsed.Seconds())},
		{"read_p50_ms", "ms", percentile(reads, 0.50), readNote},
		{"read_p95_ms", "ms", percentile(reads, 0.95), readNote},
		{"write_p50_ms", "ms", percentile(writes, 0.50), writeNote},
		{"write_p95_ms", "ms", percentile(writes, 0.95), writeNote},
		{"success_frac", "frac", 1 - ratio(float64(res.failed), float64(res.attempted)), fmt.Sprintf("%d of %d failed", res.failed, res.attempted)},
		{"energy_uj_per_req", "uJ", ratio(joules*1e6, float64(okN)), "modeled, from response bodies"},
		{"dram_kb_per_req", "KB", ratio(float64(dram)/1024, float64(okN)), "modeled, from response bodies"},
		{"cpu_ms_per_req", "ms", cpu, "getrusage user+sys over the timed region"},
		{"alloc_kb_per_req", "KB", ratio(float64(ph.alloc)/1024, n), "MemStats.TotalAlloc"},
		{"heap_mb", "MB", heapMB, "live heap after the timed region and a GC"},
	}
	return nil
}

// latencies splits replies, in completion order, into read and write
// latencies in ms.
func latencies(rs []reply) (reads, writes []float64) {
	for _, rp := range rs {
		ms := float64(rp.lat) / 1e6
		if rp.op.isWrite() {
			writes = append(writes, ms)
		} else {
			reads = append(reads, ms)
		}
	}
	return reads, writes
}

// percentile is the nearest-rank percentile p of values (0 when empty).
func percentile(v []float64, p float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return pct(s, p)
}

// pct is the nearest-rank percentile of sorted values (0 when empty).
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 { return percentile(v, 0.5) }
