package exec

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/vec"
)

// Shard-at-a-time execution over value-range-sharded tables (ROADMAP
// item 3).  A ShardedScan prunes whole shards against the predicates
// before a single morsel is enumerated — pruned shards charge their
// logical rows with zero physical bytes, the zone-map convention one
// level up — then runs the ordinary morsel grid per surviving shard and
// k-way merges the per-shard relations by the hidden global row
// sequence, which restores the unsharded table's exact row order at any
// shard count.  HashAgg detects a ShardedScan child and folds each
// shard through the PR 9 fused kernels, ordering the merged groups by
// the sequence of each group's first selected appearance; ShardedJoin
// joins aligned tables shard-pair by shard-pair, skipping the radix
// scatter entirely.  Counters stay a pure function of (snapshot, plan,
// data) — invariant under DOP — like every other operator here.

// PruneShards reports, per shard, whether the predicates can touch any
// of its rows.  The decision reads live per-shard column min/max (zone
// stats over all physical rows — conservative for every snapshot), so
// pruning is always safe even when planner statistics are stale.  Only
// BIGINT predicates prune; anything unresolvable keeps the shard.
func PruneShards(st *colstore.ShardedTable, preds []expr.Pred) []bool {
	shards := st.Shards()
	keep := make([]bool, len(shards))
	for i, sh := range shards {
		if sh.Rows() == 0 {
			continue // empty shard: nothing to scan
		}
		keep[i] = true
		for _, p := range preds {
			if p.Val.Kind != colstore.Int64 {
				continue
			}
			c, err := sh.IntCol(p.Col)
			if err != nil {
				continue
			}
			min, max, ok := c.MinMax()
			if ok && predDisjoint(p.Op, p.Val.I, min, max) {
				keep[i] = false
				break
			}
		}
	}
	return keep
}

// predDisjoint reports whether `col op v` can match nothing when every
// value of col lies in [min, max].
func predDisjoint(op vec.CmpOp, v, min, max int64) bool {
	switch op {
	case vec.EQ:
		return v < min || v > max
	case vec.NE:
		return min == max && min == v
	case vec.LT:
		return min >= v
	case vec.LE:
		return min > v
	case vec.GT:
		return max <= v
	case vec.GE:
		return max < v
	}
	return false
}

// ShardedScan scans a value-range-sharded table: prune, then one
// morsel-parallel scan per surviving shard (selecting the hidden
// sequence column alongside the projection), then a sequence merge that
// restores the flat table's row order.  Output relations are
// byte-identical to a Scan of the unsharded table at every
// shard count, DOP, and snapshot.
type ShardedScan struct {
	Sharded *colstore.ShardedTable
	Select  []string // output columns; empty = all user columns
	Preds   []expr.Pred
}

// Label implements Node.
func (s *ShardedScan) Label() string {
	parts := []string{fmt.Sprintf("ShardedScan(%s, shards=%d)", s.Sharded.Name, s.Sharded.NumShards())}
	for _, p := range s.Preds {
		parts = append(parts, p.String())
	}
	return strings.Join(parts, " ")
}

// Kids implements Node.
func (s *ShardedScan) Kids() []Node { return nil }

// names returns the effective projection (user columns only).
func (s *ShardedScan) names() []string {
	if len(s.Select) > 0 {
		return s.Select
	}
	var out []string
	for _, d := range s.Sharded.Schema() {
		out = append(out, d.Name)
	}
	return out
}

// tmpl builds the output column template (names and types, no data), so
// a fully pruned scan still returns the right empty schema.
func (s *ShardedScan) tmpl() ([]Col, error) {
	sch := s.Sharded.Schema()
	names := s.names()
	cols := make([]Col, len(names))
	for i, n := range names {
		ci := sch.ColIndex(n)
		if ci < 0 {
			return nil, fmt.Errorf("exec: table %s has no column %q", s.Sharded.Name, n)
		}
		cols[i] = Col{Name: n, Type: sch[ci].Type}
	}
	return cols, nil
}

// Run implements Node.
func (s *ShardedScan) Run(ctx *Ctx) (*Relation, error) {
	tmpl, err := s.tmpl()
	if err != nil {
		return nil, err
	}
	parts, err := s.runShards(ctx, s.names())
	if err != nil {
		return nil, err
	}
	out := mergeBySeq(parts, tmpl)
	s.chargeMerge(ctx, len(parts), out)
	ctx.Trace(s.Label(), out.N, energy.Counters{})
	return out, nil
}

// runShards prunes, scans every surviving shard (projection + the
// sequence column), and charges the pruned shards' logical rows.
func (s *ShardedScan) runShards(ctx *Ctx, names []string) ([]*Relation, error) {
	shards := s.Sharded.Shards()
	keep := PruneShards(s.Sharded, s.Preds)
	sel := append(append([]string(nil), names...), colstore.ShardSeqCol)
	var parts []*Relation
	var prunedRows uint64
	npruned := 0
	for i, sh := range shards {
		if !keep[i] {
			prunedRows += uint64(sh.RowsAsOf(ctx.SnapTS))
			npruned++
			continue
		}
		ps := &Scan{Table: sh, Select: sel, Preds: s.Preds}
		rel, err := ps.Run(ctx)
		if err != nil {
			return nil, err
		}
		parts = append(parts, rel)
	}
	if npruned > 0 {
		// Zone-prune convention one level up: the rows were considered
		// (logical input) but not a single byte of them streamed.
		ctx.Charge(fmt.Sprintf("shard-prune(%d/%d)", npruned, len(shards)), 0,
			energy.Counters{TuplesIn: prunedRows})
	}
	return parts, nil
}

// chargeMerge prices the sequence merge.  A single surviving shard needs
// no interleave (its rows are already in global order), mirroring how
// concatParts stitches morsels for free.
func (s *ShardedScan) chargeMerge(ctx *Ctx, nparts int, out *Relation) {
	if nparts <= 1 {
		return
	}
	moved := out.Bytes()
	ctx.Charge(fmt.Sprintf("shard-merge(%d shards)", nparts), out.N, energy.Counters{
		TuplesIn:         uint64(out.N),
		TuplesOut:        uint64(out.N),
		Instructions:     uint64(out.N) * uint64(nparts),
		BytesReadDRAM:    moved,
		BytesWrittenDRAM: moved,
	})
}

// seqMerger interleaves per-shard relations by their sequence column:
// flat cursor and source arrays only, one linear min-scan per output row
// (shard counts are small), no hashing and no maps.
//
//lint:hotpath
type seqMerger struct {
	seqs [][]int64 // per part: its sequence column
	idx  []int     // per part: cursor
	part []int32   // per output row: source part
	row  []int32   // per output row: row within the source part
}

// mergeBySeq merges the parts (each carrying a ShardSeqCol column, each
// ascending in it) into one relation in global sequence order, dropping
// the sequence column.  tmpl supplies the output schema for the
// zero-part case.  Sequences are globally unique, so the order — and
// therefore the output bytes — is total and deterministic.
func mergeBySeq(parts []*Relation, tmpl []Col) *Relation {
	total := 0
	for _, p := range parts {
		total += p.N
	}
	m := &seqMerger{
		seqs: make([][]int64, len(parts)),
		idx:  make([]int, len(parts)),
		part: make([]int32, total),
		row:  make([]int32, total),
	}
	seqIdx := -1
	for pi, p := range parts {
		for ci := range p.Cols {
			if p.Cols[ci].Name == colstore.ShardSeqCol {
				seqIdx = ci
				m.seqs[pi] = p.Cols[ci].I
				break
			}
		}
	}
	for o := 0; o < total; o++ {
		best := -1
		var bs int64
		for pi := range parts {
			if m.idx[pi] >= parts[pi].N {
				continue
			}
			if s := m.seqs[pi][m.idx[pi]]; best < 0 || s < bs {
				best, bs = pi, s
			}
		}
		m.part[o] = int32(best)
		m.row[o] = int32(m.idx[best])
		m.idx[best]++
	}

	out := &Relation{N: total, Cols: make([]Col, len(tmpl))}
	for oi := range tmpl {
		oc := Col{Name: tmpl[oi].Name, Type: tmpl[oi].Type}
		// Source column index: same position, skipping the sequence column.
		srcOf := func(p *Relation) *Col {
			ci := oi
			if seqIdx >= 0 && ci >= seqIdx {
				ci++
			}
			return &p.Cols[ci]
		}
		switch tmpl[oi].Type {
		case colstore.Int64:
			oc.I = make([]int64, total)
			for o := 0; o < total; o++ {
				oc.I[o] = srcOf(parts[m.part[o]]).I[m.row[o]]
			}
		case colstore.Float64:
			oc.F = make([]float64, total)
			for o := 0; o < total; o++ {
				oc.F[o] = srcOf(parts[m.part[o]]).F[m.row[o]]
			}
		default:
			oc.S = make([]string, total)
			for o := 0; o < total; o++ {
				oc.S[o] = srcOf(parts[m.part[o]]).S[m.row[o]]
			}
		}
		out.Cols[oi] = oc
	}
	return out
}

// ---------------------------------------------------------------------------
// Sharded fused aggregation
// ---------------------------------------------------------------------------

// shardedAggPlan is a resolved, eligible ShardedScan+HashAgg fusion: one
// fused per-shard plan each, plus each shard's sequence column for
// ordering the merged groups.  Group keys are restricted to BIGINT
// columns — per-shard string dictionaries assign incomparable codes, so
// string groups take the merged-relation path instead (byte-identical by
// construction, just not fused).
type shardedAggPlan struct {
	ss      *ShardedScan
	plans   []*fusedAggPlan
	seqs    []*colstore.IntColumn
	grouped bool
}

// shardedAggPlan reports how (and whether) this HashAgg can fold each
// shard through the fused kernels.  nil falls back to aggregating the
// merged ShardedScan relation.
func (a *HashAgg) shardedAggPlan() *shardedAggPlan {
	if a.Unfused || len(a.GroupBy) > 1 {
		return nil
	}
	ss, ok := a.Child.(*ShardedScan)
	if !ok {
		return nil
	}
	names := ss.names()
	sp := &shardedAggPlan{ss: ss, grouped: len(a.GroupBy) == 1}
	for _, sh := range ss.Sharded.Shards() {
		inner := &HashAgg{
			Child:   &Scan{Table: sh, Select: names, Preds: ss.Preds},
			GroupBy: a.GroupBy,
			Aggs:    a.Aggs,
		}
		fp := inner.fusedAggPlan()
		if fp == nil || fp.groupStr != nil {
			return nil
		}
		seqc, err := sh.IntCol(colstore.ShardSeqCol)
		if err != nil {
			return nil
		}
		sp.plans = append(sp.plans, fp)
		sp.seqs = append(sp.seqs, seqc)
	}
	if len(sp.plans) == 0 {
		return nil
	}
	return sp
}

// runShardedAgg folds every surviving shard through the fused kernels,
// rewrites each shard's first-appearance rows into global sequences, and
// merges the per-shard tables so the final group order is the sequence
// order of each group's first selected appearance — exactly the
// first-appearance order a flat scan of the unsharded table produces.
func (a *HashAgg) runShardedAgg(ctx *Ctx, sp *shardedAggPlan) (*Relation, error) {
	snap := ctx.SnapTS
	shards := sp.ss.Sharded.Shards()
	keep := PruneShards(sp.ss.Sharded, sp.ss.Preds)
	final := newFusedAggTable(len(a.Aggs))
	final.firstOn = sp.grouped
	var prunedRows, partialGroups uint64
	var mergeW energy.Counters
	npruned, nparts := 0, 0
	for i, sh := range shards {
		if !keep[i] {
			prunedRows += uint64(sh.RowsAsOf(snap))
			npruned++
			continue
		}
		fp := sp.plans[i]
		fp.trackFirst = sp.grouped
		n := sh.RowsAsOf(snap)
		partials, work := runMorsels(ctx, n, func(m, lo, hi int) (*fusedAggTable, energy.Counters) {
			return a.fusedAggMorsel(fp, snap, lo, hi)
		})
		if ctx.Canceled() {
			return nil, ErrCanceled
		}
		shardT := newFusedAggTable(len(a.Aggs))
		shardT.firstOn = sp.grouped
		for _, p := range partials {
			partialGroups += uint64(len(p.keys))
			nparts++
			shardT.mergeFrom(p)
		}
		if sp.grouped {
			// First-appearance rows become global sequences: point reads of
			// the stored sequence column, priced like any sparse gather.
			for gi := range shardT.keys {
				if f := shardT.firstOf(gi); f >= 0 {
					shardT.first[gi] = sp.seqs[i].Get(int(f))
				}
			}
			g := uint64(len(shardT.keys))
			mergeW.Add(energy.Counters{CacheMisses: g / 4, Instructions: g * 2})
		}
		final.mergeFrom(shardT)
		ctx.Trace(fmt.Sprintf("%s [fused shard %d]", a.Label(), i), len(shardT.keys), work)
	}
	if npruned > 0 {
		ctx.Charge(fmt.Sprintf("shard-prune(%d/%d)", npruned, len(shards)), 0,
			energy.Counters{TuplesIn: prunedRows})
	}
	if sp.grouped {
		final.sortByFirst()
	}
	w := energy.Counters{
		TuplesIn:     partialGroups,
		TuplesOut:    uint64(len(final.keys)),
		Instructions: partialGroups * 12,
		CacheMisses:  partialGroups / 4,
	}
	w.Add(mergeW)
	ctx.Charge(fmt.Sprintf("agg-merge(%d partials)", nparts), len(final.keys), w)
	return a.buildFusedOutput(sp.plans[0], final), nil
}

// ---------------------------------------------------------------------------
// Co-partitioned join
// ---------------------------------------------------------------------------

// ShardedJoin is the co-partitioned equi-join over two aligned sharded
// tables keyed on their shard columns: every key value is owned by the
// same shard index on both sides, so the join runs shard-pair by
// shard-pair with no radix scatter and no cross-shard probes.  A pair
// where either side is pruned never scans the other side.  Pair outputs
// merge by the probe side's sequence, reproducing the flat join's
// probe-row order (build chains within a key live entirely inside one
// pair, in that shard's row order — the flat build order).
type ShardedJoin struct {
	Left, Right       *ShardedScan
	LeftKey, RightKey string
}

// Label implements Node.
func (j *ShardedJoin) Label() string {
	return fmt.Sprintf("ShardedJoin(%s=%s, pairs=%d)", j.LeftKey, j.RightKey, j.Left.Sharded.NumShards())
}

// Kids implements Node.
func (j *ShardedJoin) Kids() []Node { return []Node{j.Left, j.Right} }

// CoPartitionEligible reports whether an equi-join of the two sharded
// scans on the given keys can run shard-pair by shard-pair — the
// planner's mirror of ShardedJoin.Run's own validation.
func CoPartitionEligible(l, r *ShardedScan, leftKey, rightKey string) bool {
	return l != nil && r != nil &&
		leftKey == l.Sharded.ShardCol && rightKey == r.Sharded.ShardCol &&
		l.Sharded.AlignedWith(r.Sharded)
}

// Run implements Node.
func (j *ShardedJoin) Run(ctx *Ctx) (*Relation, error) {
	if !CoPartitionEligible(j.Left, j.Right, j.LeftKey, j.RightKey) {
		return nil, fmt.Errorf("exec: ShardedJoin over unaligned tables %s, %s",
			j.Left.Sharded.Name, j.Right.Sharded.Name)
	}
	ltmpl, err := j.Left.tmpl()
	if err != nil {
		return nil, err
	}
	rtmpl, err := j.Right.tmpl()
	if err != nil {
		return nil, err
	}
	lsh, rsh := j.Left.Sharded.Shards(), j.Right.Sharded.Shards()
	keepL := PruneShards(j.Left.Sharded, j.Left.Preds)
	keepR := PruneShards(j.Right.Sharded, j.Right.Preds)
	lsel := append(append([]string(nil), j.Left.names()...), colstore.ShardSeqCol)
	var parts []*Relation
	var prunedRows uint64
	npruned := 0
	for i := range lsh {
		if !(keepL[i] && keepR[i]) {
			// Either side pruned starves the pair: neither side streams.
			prunedRows += uint64(lsh[i].RowsAsOf(ctx.SnapTS)) + uint64(rsh[i].RowsAsOf(ctx.SnapTS))
			npruned++
			continue
		}
		lrel, err := (&Scan{Table: lsh[i], Select: lsel, Preds: j.Left.Preds}).Run(ctx)
		if err != nil {
			return nil, err
		}
		rrel, err := (&Scan{Table: rsh[i], Select: j.Right.names(), Preds: j.Right.Preds}).Run(ctx)
		if err != nil {
			return nil, err
		}
		out, err := serialHashJoin(ctx, fmt.Sprintf("%s [pair %d]", j.Label(), i), lrel, rrel, j.LeftKey, j.RightKey)
		if err != nil {
			return nil, err
		}
		parts = append(parts, out)
	}
	if npruned > 0 {
		ctx.Charge(fmt.Sprintf("shard-prune(%d/%d pairs)", npruned, len(lsh)), 0,
			energy.Counters{TuplesIn: prunedRows})
	}
	// Output template mirrors mergeJoinColumns: left columns (with the
	// sequence column, dropped by the merge), then right minus its key,
	// r_-prefixed on collision.
	tmpl := append([]Col(nil), ltmpl...)
	tmpl = append(tmpl, Col{Name: colstore.ShardSeqCol, Type: colstore.Int64})
	have := map[string]bool{}
	for _, c := range tmpl {
		have[c.Name] = true
	}
	for _, c := range rtmpl {
		if c.Name == j.RightKey {
			continue
		}
		for have[c.Name] {
			c.Name = "r_" + c.Name
		}
		have[c.Name] = true
		tmpl = append(tmpl, c)
	}
	outTmpl := make([]Col, 0, len(tmpl)-1)
	for _, c := range tmpl {
		if c.Name != colstore.ShardSeqCol {
			outTmpl = append(outTmpl, c)
		}
	}
	out := mergeBySeq(parts, outTmpl)
	total := 0
	for _, p := range parts {
		total += p.N
	}
	if len(parts) > 1 {
		moved := out.Bytes()
		ctx.Charge(fmt.Sprintf("shard-join-merge(%d pairs)", len(parts)), out.N, energy.Counters{
			TuplesIn:         uint64(total),
			TuplesOut:        uint64(out.N),
			Instructions:     uint64(out.N) * uint64(len(parts)),
			BytesReadDRAM:    moved,
			BytesWrittenDRAM: moved,
		})
	}
	ctx.Trace(j.Label(), out.N, energy.Counters{})
	return out, nil
}

// ---------------------------------------------------------------------------
// Rebalance as a query
// ---------------------------------------------------------------------------

// Rebalance is the shard-narrowing pass lowered to a plan operator,
// exactly as Compact lowers the delta merge: the scheduler prices it
// with the same P-state model as user queries, races it to idle when
// the queue is empty, and defers it under load.  Horizon supplies the
// oldest live snapshot at execution time; rows pinned by a live reader
// defer the re-cut (RebalanceStats.Deferred) rather than moving under a
// consistent view.
type Rebalance struct {
	Sharded *colstore.ShardedTable
	Horizon func() int64
}

// Label implements Node.
func (r *Rebalance) Label() string {
	return fmt.Sprintf("Rebalance(%s, shards=%d)", r.Sharded.Name, r.Sharded.NumShards())
}

// Kids implements Node.
func (r *Rebalance) Kids() []Node { return nil }

// Run implements Node.  The result is a one-row summary relation, so a
// rebalance ticket flows through the serving stack like any query.
func (r *Rebalance) Run(ctx *Ctx) (*Relation, error) {
	var horizon int64
	if r.Horizon != nil {
		horizon = r.Horizon()
	}
	st, err := r.Sharded.Rebalance(horizon)
	if err != nil {
		return nil, err
	}
	ctx.Charge("rebalance:"+r.Sharded.Name, st.RowsTotal, st.Work)
	deferred := int64(0)
	if st.Deferred {
		deferred = 1
	}
	return &Relation{N: 1, Cols: []Col{
		{Name: "table", Type: colstore.String, S: []string{st.Table}},
		{Name: "shards", Type: colstore.Int64, I: []int64{int64(st.Shards)}},
		{Name: "deferred", Type: colstore.Int64, I: []int64{deferred}},
		{Name: "rows_total", Type: colstore.Int64, I: []int64{int64(st.RowsTotal)}},
		{Name: "rows_moved", Type: colstore.Int64, I: []int64{int64(st.RowsMoved)}},
		{Name: "bytes_before", Type: colstore.Int64, I: []int64{int64(st.BytesBefore)}},
		{Name: "bytes_after", Type: colstore.Int64, I: []int64{int64(st.BytesAfter)}},
	}}, nil
}

// ---------------------------------------------------------------------------
// Planner mirrors
// ---------------------------------------------------------------------------

// ShardedAggEligible reports whether HashAgg{Child: ss, GroupBy, Aggs}
// would take the per-shard fused path — the planner's pricing mirror of
// shardedAggPlan.
func ShardedAggEligible(ss *ShardedScan, groupBy []string, aggs []expr.AggSpec) bool {
	a := &HashAgg{Child: ss, GroupBy: groupBy, Aggs: aggs}
	return a.shardedAggPlan() != nil
}

// sortByFirst reorders the table's groups by ascending first-appearance
// sequence (unique per group), the merged global group order.
func (t *fusedAggTable) sortByFirst() {
	n := len(t.keys)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return t.firstOf(perm[a]) < t.firstOf(perm[b]) })
	keys := make([]int64, n)
	counts := make([]int64, n)
	isums := make([]int64, n*t.nAggs)
	imins := make([]int64, n*t.nAggs)
	imaxs := make([]int64, n*t.nAggs)
	seen := make([]bool, n*t.nAggs)
	first := make([]int64, n)
	for di, si := range perm {
		keys[di] = t.keys[si]
		counts[di] = t.counts[si]
		first[di] = t.firstOf(si)
		copy(isums[di*t.nAggs:(di+1)*t.nAggs], t.isums[si*t.nAggs:(si+1)*t.nAggs])
		copy(imins[di*t.nAggs:(di+1)*t.nAggs], t.imins[si*t.nAggs:(si+1)*t.nAggs])
		copy(imaxs[di*t.nAggs:(di+1)*t.nAggs], t.imaxs[si*t.nAggs:(si+1)*t.nAggs])
		copy(seen[di*t.nAggs:(di+1)*t.nAggs], t.seen[si*t.nAggs:(si+1)*t.nAggs])
	}
	t.keys, t.counts, t.isums, t.imins, t.imaxs, t.seen, t.first = keys, counts, isums, imins, imaxs, seen, first
	// The open-addressing slots now point at stale group indices; the
	// table is output-only after sorting, so drop them defensively.
	for i := range t.slotGroup {
		t.slotGroup[i] = 0
		t.slotKey[i] = 0
	}
	for gi, key := range t.keys {
		i := mix64(uint64(key)) & t.mask
		for t.slotGroup[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slotKey[i] = key
		t.slotGroup[i] = int32(gi + 1)
	}
}
