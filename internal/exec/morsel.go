package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
)

// Morsel-driven parallel execution (Leis et al., SIGMOD 2014, adapted to
// the operator-at-a-time model): the row space is cut into a fixed grid
// of morsels, a pool of Ctx.DOP() workers claims morsels with an atomic
// counter, and every worker keeps its results and energy counters local
// until a morsel batch completes.  The grid is a function of the input
// size alone — never of the worker count — so results and charged
// counters are byte-identical at every degree of parallelism, which is
// what lets the E18 experiment sweep DOP and attribute every delta to
// scheduling rather than to accounting noise.

// MorselRows is the morsel grid pitch.  One segment per morsel keeps the
// zone-map and packed-kernel boundaries of the column store aligned with
// the parallel work units.
const MorselRows = colstore.SegSize

// runPool fans tasks [0, n) out to min(Ctx.DOP(), n) workers claiming
// task indices from an atomic counter.  work runs once per task and
// returns the task's result plus the counters it cost; results arrive
// in results[i] so callers consume them in deterministic task order.
// Worker counters merge into ctx.Meter once per task — never per row —
// and the summed total is returned for the coordinator's trace entry.
// It is the shared engine under runMorsels (tasks = row windows) and
// the partitioned join's build phase (tasks = radix partitions).
//
// The pool honors the context's core lease at task granularity: before
// each claim a worker re-reads Ctx.DOP(), so a shrunken grant retires
// the excess workers at the next morsel boundary (a grant that grows
// mid-operator adds no workers until the next operator starts), and a
// canceled lease stops all claiming.  After a cancellation the results
// are incomplete — every caller must check Ctx.Canceled() before using
// them and return ErrCanceled in its place.
func runPool[T any](ctx *Ctx, n int, work func(task int) (T, energy.Counters)) ([]T, energy.Counters) {
	if n == 0 {
		return nil, energy.Counters{}
	}
	dop := ctx.DOP()
	if dop > n {
		dop = n
	}
	if dop < 1 {
		dop = 1
	}
	results := make([]T, n)
	workerTotals := make([]energy.Counters, dop)
	var next atomic.Int64
	worker := func(wkr int) {
		for {
			if ctx.Canceled() || (wkr > 0 && wkr >= ctx.DOP()) {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			res, w := work(i)
			results[i] = res
			ctx.Meter.Add(w) // one merge per task
			workerTotals[wkr].Add(w)
		}
	}
	if dop == 1 {
		// A lone worker runs on the calling goroutine, so a one-morsel
		// scan pays no goroutine launch.
		worker(0)
	} else {
		var wg sync.WaitGroup
		for wkr := 0; wkr < dop; wkr++ {
			wg.Add(1)
			go func(wkr int) {
				defer wg.Done()
				worker(wkr)
			}(wkr)
		}
		wg.Wait()
	}
	var total energy.Counters
	for i := range workerTotals {
		total.Add(workerTotals[i])
	}
	return results, total
}

// runMorsels fans rows [0, n) out to the worker pool morsel-wise.  work
// runs once per morsel (m is the morsel index, [lo, hi) its rows); see
// runPool for the result-ordering and counter-merging contract.
func runMorsels[T any](ctx *Ctx, n int, work func(m, lo, hi int) (T, energy.Counters)) ([]T, energy.Counters) {
	nm := (n + MorselRows - 1) / MorselRows
	return runPool(ctx, nm, func(m int) (T, energy.Counters) {
		lo := m * MorselRows
		hi := lo + MorselRows
		if hi > n {
			hi = n
		}
		return work(m, lo, hi)
	})
}

// codeFlags marks which projected columns were requested in the
// dictionary code domain and are actually servable there (a sealed,
// order-preserving string column).
func codeFlags(names []string, outCols []colstore.Column, codes []string) []bool {
	flags := make([]bool, len(names))
	for i, name := range names {
		for _, c := range codes {
			if c != name {
				continue
			}
			if sc, ok := outCols[i].(*colstore.StringColumn); ok && sc.Ordered() {
				flags[i] = true
			}
		}
	}
	return flags
}

// checkPredType verifies that a predicate literal matches its column.
func checkPredType(c colstore.Column, p expr.Pred) error {
	switch c.(type) {
	case *colstore.IntColumn:
		if p.Val.Kind != colstore.Int64 {
			return fmt.Errorf("exec: predicate %s: column is BIGINT", p)
		}
	case *colstore.FloatColumn:
		if p.Val.Kind != colstore.Float64 {
			return fmt.Errorf("exec: predicate %s: column is DOUBLE", p)
		}
	case *colstore.StringColumn:
		if p.Val.Kind != colstore.String {
			return fmt.Errorf("exec: predicate %s: column is VARCHAR", p)
		}
	default:
		return fmt.Errorf("exec: unsupported column type for %q", p.Col)
	}
	return nil
}

// gatherCol materializes the selected rows of one stored column out of
// the window [lo, hi) (global row = lo + r) — a morsel, or the whole
// snapshot prefix for index access — and prices the physical work.  A fully selected window
// decodes sealed segments in bulk (DecodeRange streams each compressed
// segment slice once — the reason join-key extraction is priced per
// morsel, not per row); sparse selections pay roughly one cache-line
// touch per value.  asCode emits a string column as dictionary codes.
// The counters are a pure function of (column, rows, window).
func gatherCol(col colstore.Column, name string, asCode bool, rows []int32, lo, hi int) (Col, energy.Counters) {
	oc := Col{Name: name, Type: col.Type()}
	n := len(rows)
	dense := n == hi-lo
	sparse := energy.Counters{CacheMisses: uint64(n) / 4, Instructions: uint64(n) * 2}
	switch c := col.(type) {
	case *colstore.IntColumn:
		oc.I = make([]int64, n)
		if dense {
			return oc, c.DecodeRange(lo, hi, oc.I)
		}
		for i, r := range rows {
			oc.I[i] = c.Get(lo + int(r))
		}
		return oc, sparse
	case *colstore.FloatColumn:
		oc.F = make([]float64, n)
		for i, r := range rows {
			oc.F[i] = c.Get(lo + int(r))
		}
		if dense {
			return oc, energy.Counters{BytesReadDRAM: uint64(n) * 8, Instructions: uint64(n)}
		}
		return oc, sparse
	case *colstore.StringColumn:
		if asCode {
			oc.Dict = c.Dict()
			oc.I = make([]int64, n)
			codes := c.CodeColumn()
			if dense {
				return oc, codes.DecodeRange(lo, hi, oc.I)
			}
			for i, r := range rows {
				oc.I[i] = codes.Get(lo + int(r))
			}
			// Codes gather cheaper than strings: no dictionary deref.
			return oc, energy.Counters{CacheMisses: uint64(n) / 8, Instructions: uint64(n)}
		}
		oc.S = make([]string, n)
		for i, r := range rows {
			oc.S[i] = c.Get(lo + int(r))
		}
		return oc, sparse
	}
	return oc, energy.Counters{}
}

// concat stitches per-morsel relations back together in morsel order,
// restoring ascending row order.  A single part — a one-morsel table —
// is returned as is.
func (b *scanBinding) concat(parts []*Relation) *Relation {
	if len(parts) == 1 {
		return parts[0]
	}
	out := &Relation{Cols: make([]Col, len(b.names))}
	for _, p := range parts {
		out.N += p.N
	}
	for ci, name := range b.names {
		oc := Col{Name: name, Type: b.outCols[ci].Type()}
		if b.asCode[ci] {
			oc.Dict = b.outCols[ci].(*colstore.StringColumn).Dict()
		}
		// The column's one value slice starts non-nil; appending the
		// parts' nil slices leaves the other two nil, as gatherCol does.
		switch {
		case oc.Type == colstore.Int64 || oc.Dict != nil:
			oc.I = make([]int64, 0, out.N)
		case oc.Type == colstore.Float64:
			oc.F = make([]float64, 0, out.N)
		default:
			oc.S = make([]string, 0, out.N)
		}
		for _, p := range parts {
			oc.I = append(oc.I, p.Cols[ci].I...)
			oc.F = append(oc.F, p.Cols[ci].F...)
			oc.S = append(oc.S, p.Cols[ci].S...)
		}
		out.Cols[ci] = oc
	}
	return out
}
