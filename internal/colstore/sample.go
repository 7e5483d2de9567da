package colstore

import (
	"encoding/binary"
	"slices"
	"sync"
)

// Strided distinct sampling for the planner's distinct-count estimate.
//
// The planner samples rows 0, step, 2·step, … of a column and counts the
// distinct values it sees.  Sealed segments never change, so their share
// of that sample is a pure function of the stride and the segment's start
// row: the column memoizes it once per stride, and a refresh after a
// write reads only the delta's sampled rows.  The stride moves only when
// the row count crosses a multiple of the sample size, so the memo is
// rebuilt about once per that many appended rows.

// strideMemo holds the sealed prefix's share of a strided sample.
type strideMemo struct {
	mu     sync.Mutex
	step   int
	sealed int     // leading sealed segments folded into vals
	vals   []int64 // sorted distinct values at the sealed prefix's sampled rows
	delta  []int64 // scratch: the delta's sampled values
}

// StrideDistinct returns how many distinct values the column holds at
// rows 0, step, 2·step, … below Len, and how many rows that sample read.
// The sealed prefix's share is memoized per step (each sealed segment's
// sampled rows are fixed by the step and its start row), so a call costs
// the delta's sampled rows, plus one pass over any segment sealed since
// the previous call at the same step.  Like Get, it must not run
// concurrently with Append or Seal on the same column; concurrent
// StrideDistinct calls are safe.
func (c *IntColumn) StrideDistinct(step int) (distinct, taken int) {
	if c.n == 0 {
		return 0, 0
	}
	m := &c.sample
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.step != step {
		m.step, m.sealed, m.vals = step, 0, m.vals[:0]
	}
	if m.sealed < len(c.segs) && c.segs[m.sealed].sealed {
		for ; m.sealed < len(c.segs) && c.segs[m.sealed].sealed; m.sealed++ {
			m.vals = c.segs[m.sealed].appendStride(m.vals, firstStrideRow(c.starts[m.sealed], step), step)
		}
		slices.Sort(m.vals)
		// The memo lives as long as the column: keep no spare capacity.
		m.vals = slices.Clone(slices.Compact(m.vals))
	}
	m.delta = m.delta[:0]
	for k := m.sealed; k < len(c.segs); k++ {
		m.delta = c.segs[k].appendStride(m.delta, firstStrideRow(c.starts[k], step), step)
	}
	slices.Sort(m.delta)
	distinct = len(m.vals)
	for i, v := range m.delta {
		if i > 0 && v == m.delta[i-1] {
			continue
		}
		if _, found := slices.BinarySearch(m.vals, v); !found {
			distinct++
		}
	}
	return distinct, (c.n-1)/step + 1
}

// firstStrideRow returns the segment-local index of the first multiple
// of step at or after the segment's start row.
func firstStrideRow(start, step int) int {
	return (step - start%step) % step
}

// appendStride appends the values at segment-local rows first,
// first+step, … to out.  Delta-encoded segments are walked forward from
// the nearest checkpoint, so no varint is decoded twice.
func (s *intSegment) appendStride(out []int64, first, step int) []int64 {
	n := s.length()
	if s.enc != EncDelta {
		for i := first; i < n; i += step {
			out = append(out, s.get(i))
		}
		return out
	}
	cur, v, p := -1, int64(0), []byte(nil)
	for i := first; i < n; i += step {
		if f := i / deltaFrame; cur < f*deltaFrame {
			cur, v, p = f*deltaFrame, s.checks[f].val, s.payload[s.checks[f].off:]
		}
		for ; cur < i; cur++ {
			d, k := binary.Varint(p)
			p = p[k:]
			v += d
		}
		out = append(out, v)
	}
	return out
}
