package exec

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/vec"
)

// AccessKind selects how a scan reaches its rows.
type AccessKind int

// The access paths the optimizer chooses between (experiment E2).
const (
	// FullScan streams every segment (packed word-parallel where sealed).
	FullScan AccessKind = iota
	// IndexAccess fetches candidate rows from a secondary index, then
	// verifies remaining predicates with point reads.
	IndexAccess
)

// AccessSpec configures the access path of a Scan node.
type AccessSpec struct {
	Kind AccessKind
	// Index and IndexCol are set for IndexAccess: the index serves the
	// predicate on IndexCol; all other predicates are verified per row.
	Index    index.Index
	IndexCol string
	// IndexEpoch is the table write epoch the index was built at.  If the
	// table has been written or merged since (epoch mismatch at run time),
	// the index is stale — it never sees the delta and compaction renumbers
	// rows — and the scan falls back to the full-scan path.
	IndexEpoch int64
}

// Scan reads a base table with conjunctive predicates pushed down; it is
// the one scan operator for flat tables.
//
// A full scan runs on the morsel grid (morsel.go): Ctx.DOP() workers
// claim MorselRows-row windows, and every window filters through
// SelectRows — colstore's zone-map-pruned operate-on-compressed kernels
// (RLE runs, delta boundary search, dictionary code rewrite, bit-packed
// SWAR) plus tombstone masking — then materializes its own slice of the
// projected columns.  The coordinator concatenates the slices in morsel
// order.  The grid is a function of the snapshot's row count alone, so
// output rows, their order, and the charged counters are identical at
// every degree of parallelism; a table of one morsel is the serial case.
//
// Index access probes the index on the coordinator, verifies the other
// predicates with point reads, and gathers the surviving rows through the
// same materialization.  A stale index falls back to the morsel grid.
type Scan struct {
	Table  *colstore.Table
	Select []string // output columns; empty = all
	Preds  []expr.Pred
	Access AccessSpec
	// Codes lists string columns to emit in the dictionary code domain
	// (Col.Dict set, I = codes) instead of materializing strings — the
	// planner requests it for join keys on sealed tables so the join
	// runs on 8-byte codes end to end.
	Codes []string
}

// Label implements Node.
func (s *Scan) Label() string {
	var parts []string
	if s.Access.Kind == IndexAccess {
		parts = append(parts, fmt.Sprintf("IndexScan(%s via %s[%s])", s.Table.Name, s.Access.Index.Name(), s.Access.IndexCol))
	} else {
		parts = append(parts, fmt.Sprintf("Scan(%s)", s.Table.Name))
	}
	for _, p := range s.Preds {
		parts = append(parts, p.String())
	}
	return strings.Join(parts, " ")
}

// Kids implements Node.
func (s *Scan) Kids() []Node { return nil }

// Run implements Node.
func (s *Scan) Run(ctx *Ctx) (*Relation, error) {
	b, err := s.bind()
	if err != nil {
		return nil, err
	}
	// The snapshot fixes the scan prefix — and with it the morsel grid —
	// at admission: rows committed later sit beyond n and are never
	// touched, so concurrent writes never perturb results, counters, or
	// the work distribution.
	snap := ctx.SnapTS
	n := s.Table.RowsAsOf(snap)
	if s.Access.Kind == IndexAccess && s.Table.WriteEpoch() == s.Access.IndexEpoch {
		rows, err := b.indexRows(ctx, n)
		if err != nil {
			return nil, err
		}
		out, w := b.gather(rows, 0, n)
		ctx.Charge("materialize", out.N, w)
		return out, nil
	}
	parts, total := runMorsels(ctx, n, func(m, lo, hi int) (*Relation, energy.Counters) {
		sel, w := b.filter(snap, lo, hi)
		out, gw := b.gather(sel.Indices(), lo, hi)
		w.Add(gw)
		return out, w
	})
	if ctx.Canceled() {
		return nil, ErrCanceled
	}
	out := b.concat(parts)
	ctx.Trace(s.Label(), out.N, total)
	return out, nil
}

// scanBinding is a Scan resolved against its table: the effective
// projection with its columns and code-domain flags, and every
// predicate's type-checked column.  Binding happens once, before any
// worker starts, so morsel bodies cannot fail; the fused pipelines bind
// their scan through it too.
type scanBinding struct {
	scan     *Scan
	names    []string
	outCols  []colstore.Column
	asCode   []bool
	predCols []colstore.Column
}

func (s *Scan) bind() (*scanBinding, error) {
	b := &scanBinding{scan: s, names: s.Select}
	if len(b.names) == 0 {
		for _, d := range s.Table.Schema() {
			b.names = append(b.names, d.Name)
		}
	}
	b.outCols = make([]colstore.Column, len(b.names))
	for i, name := range b.names {
		c, err := s.Table.Column(name)
		if err != nil {
			return nil, err
		}
		b.outCols[i] = c
	}
	b.predCols = make([]colstore.Column, len(s.Preds))
	for i, p := range s.Preds {
		c, err := s.Table.Column(p.Col)
		if err != nil {
			return nil, err
		}
		if err := checkPredType(c, p); err != nil {
			return nil, err
		}
		b.predCols[i] = c
	}
	b.asCode = codeFlags(b.names, b.outCols, s.Codes)
	return b, nil
}

// SelectRows is the row-selection kernel shared by every scan shape and
// the DML victim search: it ANDs each predicate's ScanRows over rows
// [lo, hi) of t, then masks the rows not visible at snap.  cols[i] is
// preds[i]'s column, bound and type-checked by the caller.  Bit i of the
// result is row lo+i.  The counters are a pure function of (snapshot,
// predicates, window); tombstone masking charges per visible tombstone
// in the window, so every morsel decomposition stays DOP-invariant.
func SelectRows(t *colstore.Table, preds []expr.Pred, cols []colstore.Column, snap int64, lo, hi int) (*vec.Bitvec, energy.Counters) {
	var sel *vec.Bitvec
	var w energy.Counters
	for i, p := range preds {
		pb := vec.NewBitvec(hi - lo)
		switch c := cols[i].(type) {
		case *colstore.IntColumn:
			w.Add(c.ScanRows(p.Op, p.Val.I, lo, hi, pb))
		case *colstore.FloatColumn:
			w.Add(c.ScanRows(p.Op, p.Val.F, lo, hi, pb))
		case *colstore.StringColumn:
			w.Add(c.ScanRows(p.Op, p.Val.S, lo, hi, pb))
		}
		if sel == nil {
			sel = pb
		} else {
			sel.And(pb)
		}
	}
	if sel == nil {
		sel = vec.NewBitvec(hi - lo)
		sel.SetAll()
	}
	w.Add(t.FilterVisible(snap, lo, hi, sel))
	return sel, w
}

// filter is the scan stage of the morsel scan and the fused pipelines:
// SelectRows over [lo, hi), plus the logical input rows of a
// predicate-free window, which no predicate kernel charges.
func (b *scanBinding) filter(snap int64, lo, hi int) (*vec.Bitvec, energy.Counters) {
	s := b.scan
	sel, w := SelectRows(s.Table, s.Preds, b.predCols, snap, lo, hi)
	if len(s.Preds) == 0 {
		w.TuplesIn += uint64(hi - lo)
	}
	return sel, w
}

// gather materializes rows of the window [lo, hi) (row lo+r for each r
// in rows) for every projected column, pricing the output tuples and
// each column's physical reads.
func (b *scanBinding) gather(rows []int32, lo, hi int) (*Relation, energy.Counters) {
	out := &Relation{N: len(rows), Cols: make([]Col, len(b.names))}
	w := energy.Counters{TuplesOut: uint64(len(rows))}
	for i, col := range b.outCols {
		oc, gw := gatherCol(col, b.names[i], b.asCode[i], rows, lo, hi)
		out.Cols[i] = oc
		w.Add(gw)
	}
	return out, w
}

// indexRows serves the IndexCol predicate from the index and verifies the
// remaining predicates row by row (random access, priced as cache
// misses).  The returned rows are global and ascending.
func (b *scanBinding) indexRows(ctx *Ctx, n int) ([]int32, error) {
	s := b.scan
	key := slices.IndexFunc(s.Preds, func(p expr.Pred) bool { return p.Col == s.Access.IndexCol })
	if key < 0 {
		return nil, fmt.Errorf("exec: index access on %q without a predicate on it", s.Access.IndexCol)
	}
	keyPred := s.Preds[key]
	if keyPred.Val.Kind != colstore.Int64 {
		return nil, fmt.Errorf("exec: index access requires BIGINT predicate, got %s", keyPred)
	}
	var cand []int32
	var ctr energy.Counters
	lc := s.Access.Index.LookupCost()
	switch keyPred.Op {
	case vec.EQ:
		cand = append(cand, s.Access.Index.Lookup(keyPred.Val.I)...)
		ctr.Add(lc)
	case vec.LT, vec.LE, vec.GT, vec.GE:
		if !s.Access.Index.SupportsRange() {
			return nil, fmt.Errorf("exec: %s index cannot serve range predicate %s", s.Access.Index.Name(), keyPred)
		}
		if lo, hi, ok := rangeBounds(keyPred.Op, keyPred.Val.I); ok {
			s.Access.Index.Range(lo, hi, func(k int64, rows []int32) bool {
				cand = append(cand, rows...)
				ctr.Instructions += 8
				ctr.CacheMisses++
				return true
			})
		}
		ctr.Add(lc)
	default:
		return nil, fmt.Errorf("exec: index access cannot serve %s", keyPred)
	}
	// Index postings arrive key-ordered; downstream operators expect row
	// order for stable results.
	slices.Sort(cand)
	// Verify remaining predicates with point reads, discarding postings
	// outside the snapshot (beyond the prefix, or tombstoned at it).
	rows := make([]int32, 0, len(cand))
	for _, r := range cand {
		if int(r) >= n || !s.Table.RowVisible(ctx.SnapTS, int(r)) {
			continue
		}
		if b.rowMatches(int(r), key, &ctr) {
			rows = append(rows, r)
		}
	}
	ctr.TuplesIn = uint64(len(cand))
	ctr.TuplesOut = uint64(len(rows))
	ctx.Charge(fmt.Sprintf("index:%s", keyPred), len(rows), ctr)
	return rows, nil
}

// rangeBounds converts an inequality into inclusive index bounds over the
// whole int64 domain.  ok is false when no key can satisfy it (x <
// MinInt64 or x > MaxInt64), where c-1 or c+1 would wrap around.
func rangeBounds(op vec.CmpOp, c int64) (lo, hi int64, ok bool) {
	switch op {
	case vec.LT:
		return math.MinInt64, c - 1, c != math.MinInt64
	case vec.LE:
		return math.MinInt64, c, true
	case vec.GT:
		return c + 1, math.MaxInt64, c != math.MaxInt64
	case vec.GE:
		return c, math.MaxInt64, true
	}
	return 0, 0, false
}

// rowMatches verifies every predicate but the index-served one (skip)
// against a single row via point reads, charging one cache miss per
// predicate evaluated.
func (b *scanBinding) rowMatches(row, skip int, w *energy.Counters) bool {
	for i, p := range b.scan.Preds {
		if i == skip {
			continue
		}
		w.CacheMisses++
		w.Instructions += 6
		switch c := b.predCols[i].(type) {
		case *colstore.IntColumn:
			if !vec.CmpInt64(p.Op, c.Get(row), p.Val.I) {
				return false
			}
		case *colstore.FloatColumn:
			if !cmpOrdered(p.Op, c.Get(row), p.Val.F) {
				return false
			}
		case *colstore.StringColumn:
			if !cmpOrdered(p.Op, c.Get(row), p.Val.S) {
				return false
			}
		}
	}
	return true
}

// cmpOrdered evaluates `a op b` for float and string operands.
func cmpOrdered[T float64 | string](op vec.CmpOp, a, b T) bool {
	switch op {
	case vec.LT:
		return a < b
	case vec.LE:
		return a <= b
	case vec.GT:
		return a > b
	case vec.GE:
		return a >= b
	case vec.EQ:
		return a == b
	case vec.NE:
		return a != b
	}
	return false
}
