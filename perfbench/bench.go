package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/server"
)

// coreBudget is the server's core budget: the CPU count of the machine
// the benchmark is sized for, so morsel workers do not outnumber cores.
const coreBudget = 2

// cacheLineBytes is the DRAM traffic of one modeled cache miss: a miss
// fetches one 64-byte line.
const cacheLineBytes = 64

// serverConfig is eimdb-serve's default configuration, except for the
// core budget.  The WAL runs at its core.Open default: local flush with
// a 200µs group-commit window.
func serverConfig() server.Config {
	return server.Config{
		Sched: core.SchedulerConfig{
			Budget:     coreBudget,
			QueueDepth: 64,
			BatchScans: true,
			Arbitrate:  true,
		},
		Objective:      opt.MinEnergy,
		MergeDeltaRows: 4096,
	}
}

// bench is one engine behind one server, with the books the output
// checks keep.
type bench struct {
	eng *core.Engine
	srv http.Handler
	clk *clock

	rows     int // orders rows at load
	inserted atomic.Int64
	deleted  atomic.Int64
}

// reply is the outcome of one request.
type reply struct {
	op         op
	status     int
	start, lat time.Duration // clock offsets: ServeHTTP entry, and entry to full body
	ok         bool          // 200 and every output check passed
	bad        bool          // a wrong answer, not a refusal
	joules     float64
	dram       uint64
	rows       json.RawMessage
}

// body is the part of a /v1/query or /v1/write 200 body the checks read.
type body struct {
	Rows    json.RawMessage `json:"rows"`
	Matched int             `json:"matched"`
	Applied int             `json:"applied"`
	Work    energy.Counters `json:"work"`
	Energy  struct {
		Joules float64 `json:"joules"`
	} `json:"energy"`
}

func dramBytes(w energy.Counters) uint64 {
	return w.BytesReadDRAM + w.BytesWrittenDRAM + w.CacheMisses*cacheLineBytes
}

// send serves one request in process and checks the reply.
func (b *bench) send(r *request) reply {
	hr := httptest.NewRequest(http.MethodPost, r.op.path(), bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	start := b.clk.Now()
	b.srv.ServeHTTP(rec, hr)
	rp := reply{op: r.op, status: rec.Code, start: start, lat: b.clk.Now() - start}
	switch rec.Code {
	case http.StatusOK:
		rp.ok = b.check(r, rec.Body.Bytes(), &rp)
		rp.bad = !rp.ok
	case http.StatusTooManyRequests, http.StatusPaymentRequired, http.StatusConflict:
		// Refusals: failed, but not wrong.
	default:
		rp.bad = true
	}
	return rp
}

// check verifies a 200 body: reads must carry the expected rows when
// they are known; INSERTs must apply all their rows; UPDATE and DELETE
// may apply at most what they matched.  It also keeps the insert and
// delete books the final count is checked against.
func (b *bench) check(r *request, raw []byte, rp *reply) bool {
	var bd body
	if err := json.Unmarshal(raw, &bd); err != nil {
		return false
	}
	rp.joules = bd.Energy.Joules
	rp.dram = dramBytes(bd.Work)
	switch r.op {
	case opRead:
		rp.rows = bd.Rows
		if len(bd.Rows) == 0 || bd.Rows[0] != '[' {
			return false
		}
		return r.want == nil || len(*r.want) == 0 || bytes.Equal(bd.Rows, *r.want)
	case opInsert:
		b.inserted.Add(int64(bd.Applied))
		return bd.Applied == insertRows
	case opDelete:
		b.deleted.Add(int64(bd.Applied))
	}
	return bd.Applied <= bd.Matched
}

// rowsJSON renders a relation's rows exactly as the server does.
func rowsJSON(rel *exec.Relation) []byte {
	rows := make([][]any, 0, rel.N)
	for i := 0; i < rel.N; i++ {
		rows = append(rows, rel.Row(i))
	}
	out, err := json.Marshal(rows)
	if err != nil {
		panic(err) // relation cells are ints, floats and strings
	}
	return out
}

// fillWants computes, with Engine.Query, the expected rows of every
// checked request not computed yet.
func (b *bench) fillWants(reqs []request) error {
	for i := range reqs {
		r := &reqs[i]
		if r.want == nil || len(*r.want) > 0 {
			continue
		}
		res, err := b.eng.Query(r.text())
		if err != nil {
			return fmt.Errorf("expected rows of %q: %w", r.text(), err)
		}
		*r.want = rowsJSON(res.Rel)
	}
	return nil
}

// phase is one closed-loop drive through part of the request sequence.
// Its replies are in completion order.
type phase struct {
	replies   []reply
	used      int // requests taken from the sequence
	exhausted bool
	elapsed   time.Duration
	cpu       time.Duration // process user+sys
	alloc     uint64        // heap bytes allocated
	gcFrac    float64       // GC share of the Go runtime's busy CPU
}

// drive sends reqs from `clients` closed-loop clients until dur has
// passed or the sequence runs out, and waits for every client.  Each
// client takes the next request, waits for its reply, then takes the
// next.  after, when set, runs on the client after each reply (the
// traced run's reruns); it must be nil with more than one client.
func (b *bench) drive(reqs []request, clients int, dur time.Duration, after func(*request, *reply)) phase {
	var next atomic.Int64
	per := make([][]reply, clients)
	var wg sync.WaitGroup
	res0 := readUsage()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				rp := b.send(&reqs[i])
				if after != nil {
					after(&reqs[i], &rp)
				}
				rp.rows = nil
				per[c] = append(per[c], rp)
			}
		}(c)
	}
	wg.Wait()

	ph := phase{elapsed: time.Since(start)}
	res1 := readUsage()
	ph.used = min(int(next.Load()), len(reqs))
	ph.exhausted = int(next.Load()) >= len(reqs)
	for _, rs := range per {
		ph.replies = append(ph.replies, rs...)
	}
	slices.SortFunc(ph.replies, func(a, b reply) int { return int((a.start + a.lat) - (b.start + b.lat)) })
	ph.cpu = res1.cpu - res0.cpu
	ph.alloc = res1.alloc - res0.alloc
	ph.gcFrac = ratio(res1.gcCPU-res0.gcCPU, res1.busyCPU-res0.busyCPU)
	return ph
}

// usage is a reading of the process's resource counters.
type usage struct {
	cpu            time.Duration
	alloc          uint64
	gcCPU, busyCPU float64
}

var usageSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(usageSamples))
	for i, n := range usageSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return usage{
		cpu:     cpuTime(),
		alloc:   ms.TotalAlloc,
		gcCPU:   s[0].Value.Float64(),
		busyCPU: s[1].Value.Float64() - s[2].Value.Float64(),
	}
}

// heapAllocs is the cumulative heap allocation, read without stopping
// the world (the traced reruns read it around each node.Run).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// serverStats is the part of GET /v1/stats the traced run reads.
type serverStats struct {
	Writes    uint64 `json:"writes"`
	Merges    uint64 `json:"merges"`
	PlanCache struct {
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
		Entries int    `json:"entries"`
	} `json:"plan_cache"`
	Energy struct {
		AttributedDynamicJ float64 `json:"attributed_dynamic_j"`
		SavedDynamicJ      float64 `json:"saved_dynamic_j"`
	} `json:"energy"`
}

func (b *bench) stats() (serverStats, error) {
	rec := httptest.NewRecorder()
	b.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var s serverStats
	if rec.Code != http.StatusOK {
		return s, fmt.Errorf("GET /v1/stats: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		return s, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return s, nil
}

// writeProbe sends one part of the write probe from one client and
// returns its write latencies in ms, in completion order.  The part's
// first write is a warm-up: sent and checked, not timed.  A count check
// follows the part.
func (b *bench) writeProbe(reqs []request, res *result) []float64 {
	res.tally(b.send(&reqs[0]))
	runtime.GC()
	ph := b.drive(reqs[1:], 1, time.Hour, nil)
	res.tally(ph.replies...)
	res.tally(b.countCheck())
	_, writes := latencies(ph.replies)
	return writes
}

// countCheck sends SELECT COUNT(*) through the server and checks it
// against the rows loaded plus inserted minus deleted.
func (b *bench) countCheck() reply {
	r := newRequest(opRead, "SELECT COUNT(*) AS n FROM orders")
	want := []byte(fmt.Sprintf("[[%d]]", int64(b.rows)+b.inserted.Load()-b.deleted.Load()))
	r.want = &want
	return b.send(&r)
}
