package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sched"
	"repro/internal/sql"
	"repro/internal/workload"
)

// The traced run splits --seconds into three phases over one server:
//
//   - load: two clients, untraced, as in the measured run.  /v1/stats and
//     Txn().Stats() snapshots around it give the server, scheduler, core
//     and txn counts under concurrent arrivals, and the runtime's GC share.
//   - base: one client, untraced: the baseline the tracing overhead is
//     measured against.
//   - traced: one client, so spans nest without ambiguity.  The clock
//     records every wake callback, and after each reply the client
//     re-parses, re-plans and re-runs the read's text on the engine at
//     the current snapshot, timing each layer; the rerun's rows must
//     equal the served rows.
//
// All spans and counts come from this file and clock.go, around public
// calls; the program itself is not instrumented.

// tracer collects the traced phase's per-request layer measurements.
type tracer struct {
	b *bench

	parseUS []float64 // sql.Parse or sql.ParseStmt per request
	planUS  []float64 // Engine.Plan per read
	runMS   []float64 // node.Run per read
	tasks   []sched.Task

	reads            int
	runNS, modelNS   float64
	allocB           uint64
	tuplesIn, misses uint64
	estB, measB      uint64
	pruned, scanned  int
}

// after is the traced client's per-reply hook.
func (t *tracer) after(r *request, rp *reply) {
	text := r.text()
	start := time.Now()
	if r.op.isWrite() {
		_, err := sql.ParseStmt(text)
		t.parseUS = append(t.parseUS, us(time.Since(start)))
		if err != nil {
			rp.ok, rp.bad = false, true
		}
		return
	}
	q, err := sql.Parse(text)
	t.parseUS = append(t.parseUS, us(time.Since(start)))
	if err != nil {
		rp.ok, rp.bad = false, true
		return
	}
	start = time.Now()
	node, info, err := t.b.eng.Plan(q, opt.MinEnergy)
	t.planUS = append(t.planUS, us(time.Since(start)))
	if err != nil {
		rp.ok, rp.bad = false, true
		return
	}
	snap := t.b.eng.SnapshotTS()
	ctx := exec.NewCtx()
	ctx.Parallelism = coreBudget
	ctx.SnapTS = snap
	a0 := heapAllocs()
	start = time.Now()
	rel, err := node.Run(ctx)
	d := time.Since(start)
	t.allocB += heapAllocs() - a0
	if err != nil {
		rp.ok, rp.bad = false, true
		return
	}
	if rp.status == http.StatusOK && !bytes.Equal(rowsJSON(rel), rp.rows) {
		rp.ok, rp.bad = false, true
	}
	work := ctx.Meter.Snapshot()
	m := t.b.eng.Model()
	t.reads++
	t.runMS = append(t.runMS, float64(d)/1e6)
	t.runNS += float64(d)
	t.modelNS += float64(m.CPUTime(work, m.Core.MaxPState()))
	t.tuplesIn += work.TuplesIn
	t.misses += work.CacheMisses
	t.estB += dramBytes(info.Est.Work)
	t.measB += dramBytes(work)
	t.pruned += info.ShardsPruned
	t.scanned += info.ShardsScanned
	t.tasks = append(t.tasks, sched.Task{
		Seq:      len(t.tasks),
		Arrival:  rp.start,
		Work:     info.Est.Work,
		ShareKey: fmt.Sprintf("%d|%s", snap, info.ShareSig),
		Goal:     sched.GoalEnergy,
	})
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// traced is the traced per-layer run.
func traced(p params, b *bench, reqs []request, res *result) error {
	dur := time.Duration(p.seconds / 3 * float64(time.Second))

	st0, err := b.stats()
	if err != nil {
		return err
	}
	c0, f0, r0, _ := b.eng.Txn().Stats()
	runtime.GC()
	load := b.drive(reqs, 2, dur, nil)
	st1, err := b.stats()
	if err != nil {
		return err
	}
	c1, f1, r1, _ := b.eng.Txn().Stats()
	reqs = reqs[load.used:]

	base := b.drive(reqs, 1, dur, nil)
	reqs = reqs[base.used:]

	t := &tracer{b: b}
	b.clk.trace(true)
	tr := b.drive(reqs, 1, dur, t.after)
	wakes := b.clk.trace(false)
	res.tally(load.replies...)
	res.tally(base.replies...)
	res.tally(tr.replies...)
	res.tally(b.countCheck())
	stEnd, err := b.stats()
	if err != nil {
		return err
	}

	var refused, conflicts, loadWrites int
	for _, rp := range load.replies {
		switch rp.status {
		case http.StatusTooManyRequests, http.StatusPaymentRequired:
			refused++
		case http.StatusConflict:
			conflicts++
		}
		if rp.op.isWrite() {
			loadWrites++
		}
	}
	self, settle := selfTimes(tr.replies, wakes)
	var late []float64
	for _, w := range wakes {
		late = append(late, us(w.start-w.at))
	}
	var writeUS []float64
	for _, rp := range tr.replies {
		if rp.op.isWrite() {
			writeUS = append(writeUS, us(rp.lat))
		}
	}
	baseReads, _ := latencies(base.replies)
	trReads, _ := latencies(tr.replies)
	var trOK int
	for _, rp := range tr.replies {
		if rp.ok {
			trOK++
		}
	}
	dHits := float64(st1.PlanCache.Hits - st0.PlanCache.Hits)
	dMisses := float64(st1.PlanCache.Misses - st0.PlanCache.Misses)
	dWrites := float64(st1.Writes - st0.Writes)
	reads := float64(t.reads)
	n := func(k int) string { return fmt.Sprintf("n=%d", k) }

	res.metrics = []metric{
		{"server.query_self_us", "us", median(self), n(len(self)) + " traced reads; ServeHTTP minus the wakes inside it"},
		{"server.write_us", "us", median(writeUS), n(len(writeUS)) + " traced writes"},
		{"server.plan_cache_hit_frac", "frac", ratio(dHits, dHits+dMisses), "load phase, /v1/stats"},
		{"server.plan_cache_entries", "count", float64(stEnd.PlanCache.Entries), "end of run, /v1/stats"},
		{"server.rejected_frac", "frac", ratio(float64(refused), float64(len(load.replies))), "load phase, 429 and 402"},
		{"sql.parse_us", "us", median(t.parseUS), n(len(t.parseUS)) + " traced requests"},
		{"opt.plan_us", "us", median(t.planUS), n(len(t.planUS)) + " traced reads"},
		{"opt.shards_pruned_frac", "frac", ratio(float64(t.pruned), float64(t.pruned+t.scanned)), "traced reads, PlanInfo"},
		{"opt.est_bytes_ratio", "ratio", ratio(float64(t.estB), float64(t.measB)), "PlanInfo.Est over rerun meter DRAM bytes"},
		{"sched.wake_late_us", "us", median(late), n(len(late)) + " wakes"},
		{"sched.offer_react_us", "us", offerReact(b.eng, t.tasks), n(len(t.tasks)) + " tasks replayed on a standalone sched.Loop"},
		{"sched.saved_j_frac", "frac", ratio(st1.Energy.SavedDynamicJ-st0.Energy.SavedDynamicJ, st1.Energy.AttributedDynamicJ-st0.Energy.AttributedDynamicJ), "load phase, /v1/stats"},
		{"core.wake_ms", "ms", median(settle), n(len(settle)) + " traced reads; wake time inside each ServeHTTP"},
		{"core.merges_per_kwrite", "1/kwrite", ratio(float64(st1.Merges-st0.Merges)*1000, dWrites), "load phase, /v1/stats"},
		{"exec.run_ms", "ms", median(t.runMS), n(len(t.runMS)) + " reruns at DOP 2"},
		{"exec.model_ratio", "ratio", ratio(t.runNS, t.modelNS), "rerun wall time over Model.CPUTime at max P-state"},
		{"exec.alloc_kb_per_run", "KB", ratio(float64(t.allocB)/1024, reads), "heap bytes allocated per rerun"},
		{"exec.tuples_in_per_req", "count", ratio(float64(t.tuplesIn), reads), "rerun meter"},
		{"exec.cache_misses_per_req", "count", ratio(float64(t.misses), reads), "rerun meter"},
		{"colstore.get_ns", "ns", getNS(b.eng, p.seed), "IntColumn.Get on sealed id and custkey"},
		{"colstore.delta_rows_end", "count", float64(deltaRows(b.eng)), "end of run"},
		{"index.probe_us", "us", probeUS(b.eng, p.seed, p.rows), "hash index on orders.id, 0 when absent"},
		{"txn.rides_per_commit", "ratio", ratio(float64(r1-r0), float64(c1-c0)), "load phase, Txn().Stats()"},
		{"txn.flushes_per_write", "ratio", ratio(float64(f1-f0), dWrites), "load phase, Txn().Stats() over /v1/stats writes"},
		{"txn.conflict_frac", "frac", ratio(float64(conflicts), float64(loadWrites)), "load phase, 409s over writes"},
		{"go.gc_cpu_frac", "frac", load.gcFrac, "load phase, runtime/metrics"},
		{"trace.read_p50_ms", "ms", median(trReads), n(len(trReads)) + " traced reads, one client"},
		{"trace.base_read_p50_ms", "ms", median(baseReads), n(len(baseReads)) + " untraced reads, one client"},
		{"trace.overhead_frac", "frac", ratio(median(trReads), median(baseReads)) - 1, "traced over untraced read p50, minus 1"},
		{"trace.throughput_rps", "1/s", float64(trOK) / tr.elapsed.Seconds(), "traced phase, reruns included"},
	}
	return nil
}

// selfTimes returns, per traced read, its ServeHTTP time minus the wake
// callbacks that ran inside it (server self time, µs), and that wake
// time itself (ms).  Replies come in order from one client; wakes are
// sorted by start here.
func selfTimes(rs []reply, wakes []wakeSpan) (self, settle []float64) {
	slices.SortFunc(wakes, func(a, b wakeSpan) int { return int(a.start - b.start) })
	j := 0
	for _, rp := range rs {
		if rp.op.isWrite() {
			continue
		}
		s, e := rp.start, rp.start+rp.lat
		for j < len(wakes) && wakes[j].end <= s {
			j++
		}
		var in time.Duration
		for k := j; k < len(wakes) && wakes[k].start < e; k++ {
			in += min(e, wakes[k].end) - max(s, wakes[k].start)
		}
		self = append(self, us(rp.lat-in))
		settle = append(settle, float64(in)/1e6)
	}
	return self, settle
}

// offerReact replays the traced reads' tasks, at their arrival offsets,
// through a standalone sched.Loop configured as the server's, and
// returns the median Offer+React+AdvanceTo time per task in µs.
func offerReact(e *core.Engine, tasks []sched.Task) float64 {
	m := e.Model()
	l := sched.NewLoop(sched.MQConfig{
		Budget:     coreBudget,
		QueueDepth: 64,
		BatchScans: true,
		Arbitrate:  true,
		Model:      m,
		PState:     m.Core.MaxPState(),
		MemGB:      residentGB(e),
	})
	ds := make([]float64, 0, len(tasks))
	for _, task := range tasks {
		start := time.Now()
		l.AdvanceTo(task.Arrival)
		l.Offer(task)
		l.React()
		ds = append(ds, us(time.Since(start)))
	}
	return median(ds)
}

// residentGB is the catalog's table footprint, as core prices the
// platform's background power.
func residentGB(e *core.Engine) float64 {
	var bytes uint64
	for _, name := range e.Catalog().Tables() {
		if t, err := e.Catalog().Table(name); err == nil {
			bytes += t.Bytes()
		}
	}
	return float64(bytes) / 1e9
}

// ordersTables returns orders' shards, or its flat table as the one
// shard.
func ordersTables(e *core.Engine) []*colstore.Table {
	if st, err := e.Catalog().Sharded("orders"); err == nil {
		return st.Shards()
	}
	t, err := e.Catalog().Table("orders")
	if err != nil {
		panic(err) // every workload loads orders
	}
	return []*colstore.Table{t}
}

var sink int64

// getNS times IntColumn.Get at 4096 seeded sealed rows of each of id
// and custkey, in ns per call.
func getNS(e *core.Engine, seed uint64) float64 {
	rng := workload.NewRNG(seed ^ 0x6e7)
	shards := ordersTables(e)
	t := shards[rng.Intn(len(shards))]
	rows := t.MainRows()
	if rows == 0 {
		return 0
	}
	var total time.Duration
	var calls int
	for _, col := range []string{"id", "custkey"} {
		ic, err := t.IntCol(col)
		if err != nil {
			panic(err) // orders has both columns
		}
		at := make([]int, 4096)
		for i := range at {
			at[i] = rng.Intn(rows)
		}
		start := time.Now()
		for _, i := range at {
			sink += ic.Get(i)
		}
		total += time.Since(start)
		calls += len(at)
	}
	return float64(total) / float64(calls)
}

// deltaRows sums orders' delta rows over its shards.
func deltaRows(e *core.Engine) int {
	var n int
	for _, t := range ordersTables(e) {
		n += t.DeltaRows()
	}
	return n
}

// probeUS times 4096 seeded lookups in the hash index on orders.id, in
// µs per probe; 0 when the catalog has no current index there.
func probeUS(e *core.Engine, seed uint64, rows int) float64 {
	idx, ok := e.Catalog().Index("orders", "id")
	if !ok {
		return 0
	}
	rng := workload.NewRNG(seed ^ 0x1d)
	keys := make([]int64, 4096)
	for i := range keys {
		keys[i] = int64(1 + rng.Intn(rows))
	}
	start := time.Now()
	for _, k := range keys {
		sink += int64(len(idx.Lookup(k)))
	}
	return us(time.Since(start)) / float64(len(keys))
}
