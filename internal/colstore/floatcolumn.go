package colstore

import (
	"repro/internal/energy"
	"repro/internal/vec"
)

// FloatColumn is a flat column of float64 measures.  Measures are summed
// and averaged, rarely filtered, so the column stays unpacked; scans are
// branch-free scalar loops.
type FloatColumn struct {
	vals []float64
}

// NewFloatColumn returns an empty float column.
func NewFloatColumn() *FloatColumn { return &FloatColumn{} }

// Len returns the number of rows.
func (c *FloatColumn) Len() int { return len(c.vals) }

// Type returns Float64.
func (c *FloatColumn) Type() Type { return Float64 }

// Bytes returns the memory footprint.
func (c *FloatColumn) Bytes() uint64 { return uint64(len(c.vals)) * 8 }

// Append adds one value.
func (c *FloatColumn) Append(v float64) { c.vals = append(c.vals, v) }

// AppendSlice bulk-appends values.
func (c *FloatColumn) AppendSlice(vs []float64) { c.vals = append(c.vals, vs...) }

// Get returns row i.
func (c *FloatColumn) Get(i int) float64 { return c.vals[i] }

// Values exposes the backing slice (read-only by convention).
func (c *FloatColumn) Values() []float64 { return c.vals }

// Scan evaluates `value op x` into out and prices the work.  It is the
// whole-column case of ScanRows, so whole-column and morsel scans
// share one kernel and one pricing formula.
func (c *FloatColumn) Scan(op vec.CmpOp, x float64, out *vec.Bitvec) energy.Counters {
	return c.ScanRows(op, x, 0, len(c.vals), out)
}

// SumWhere sums the selected rows, the hot path of aggregation queries.
func (c *FloatColumn) SumWhere(sel *vec.Bitvec) (float64, energy.Counters) {
	var sum float64
	n := 0
	sel.ForEach(func(i int) {
		sum += c.vals[i]
		n++
	})
	return sum, energy.Counters{
		CacheMisses:  uint64(n) / 8, // selective gathers miss roughly once per line
		Instructions: uint64(n) * 2,
		TuplesIn:     uint64(n),
	}
}
