// Package opt is the energy-aware query optimizer.  Following the paper's
// §IV, it treats energy as a first-class optimization objective next to
// response time: every plan alternative is priced in both seconds and
// joules, and plan selection can minimize time, energy, energy-delay
// product, or the fastest plan under a power cap (the Figure 2 regime).
//
// The package contains the catalog (table statistics and index registry),
// selectivity estimation, the dual cost model, access-path selection
// (experiment E2), join ordering with a DP-to-greedy cutover that scales
// past 10,000 tables (E10), the compress-vs-send decision (E3), and the
// planner that lowers logical queries to executable operator trees.
package opt

import (
	"fmt"

	"repro/internal/colstore"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/vec"
)

// ColStats holds per-column statistics for selectivity estimation.
type ColStats struct {
	Type      colstore.Type
	Min, Max  int64 // integer domain bounds (valid when HasMinMax)
	HasMinMax bool
	Distinct  int // estimated distinct count
	// ScanBytesPerValue is the physical bytes a predicate scan streams
	// per value under the column's sealed segment codecs (compressed
	// footprint / rows); zero when unknown, 8 for raw layouts.
	ScanBytesPerValue float64
}

// TableStats summarizes one table.
type TableStats struct {
	Name string
	Rows int
	Cols map[string]ColStats
	// Storage is the table's physical layout snapshot: per-column codec
	// mix and the stored-vs-raw compression ratio the planner reports in
	// PlanInfo.
	Storage colstore.TableStorage
}

// Selectivity estimates the fraction of rows matching p under a uniform
// value distribution — the textbook model, adequate for the shape
// comparisons the experiments make.
func (ts *TableStats) Selectivity(p expr.Pred) float64 {
	cs, ok := ts.Cols[p.Col]
	if !ok || ts.Rows == 0 {
		return 0.1
	}
	switch p.Op {
	case vec.EQ:
		if cs.Distinct > 0 {
			return 1 / float64(cs.Distinct)
		}
		return 0.01
	case vec.NE:
		if cs.Distinct > 0 {
			return 1 - 1/float64(cs.Distinct)
		}
		return 0.99
	}
	if !cs.HasMinMax || cs.Max <= cs.Min || p.Val.Kind != colstore.Int64 {
		return 0.33 // default inequality guess
	}
	span := float64(cs.Max - cs.Min + 1)
	frac := float64(p.Val.I-cs.Min) / span
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	switch p.Op {
	case vec.LT, vec.LE:
		return frac
	case vec.GT, vec.GE:
		return 1 - frac
	}
	return 0.33
}

// indexEntry pins an index to the table write epoch it was built at;
// any later write or merge invalidates it (the index is a snapshot of
// Values() and never sees the delta).
type indexEntry struct {
	idx   index.Index
	epoch int64
}

// Catalog registers tables, their statistics, and secondary indexes.
type Catalog struct {
	tables  map[string]*colstore.Table
	stats   map[string]*TableStats
	indexes map[string]map[string]indexEntry
	sharded map[string]*colstore.ShardedTable
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables:  make(map[string]*colstore.Table),
		stats:   make(map[string]*TableStats),
		indexes: make(map[string]map[string]indexEntry),
		sharded: make(map[string]*colstore.ShardedTable),
	}
}

// AddTable registers a table and computes its statistics.
func (c *Catalog) AddTable(t *colstore.Table) {
	ts := &TableStats{Name: t.Name, Rows: t.Rows(), Cols: map[string]ColStats{}, Storage: t.Storage()}
	colStorage := make(map[string]colstore.ColumnStorage, len(ts.Storage.Cols))
	for _, s := range ts.Storage.Cols {
		colStorage[s.Name] = s
	}
	for _, d := range t.Schema() {
		cs := ColStats{Type: d.Type}
		if s, ok := colStorage[d.Name]; ok && ts.Rows > 0 {
			cs.ScanBytesPerValue = float64(s.StoredBytes) / float64(ts.Rows)
		}
		switch d.Type {
		case colstore.Int64:
			ic, _ := t.IntCol(d.Name)
			if min, max, ok := ic.MinMax(); ok {
				cs.Min, cs.Max, cs.HasMinMax = min, max, true
				cs.Distinct = estimateDistinct(ic, min, max)
			}
		case colstore.String:
			sc, _ := t.StrCol(d.Name)
			cs.Distinct = sc.DictSize()
		}
		ts.Cols[d.Name] = cs
	}
	c.tables[t.Name] = t
	c.stats[t.Name] = ts
}

// distinctSample is the size of the strided sample behind the
// distinct-count estimate.
const distinctSample = 4096

// estimateDistinct samples every step-th row, step = n/distinctSample
// (at least 1), and counts the distinct sampled values, capped by the
// domain span [lo, hi].  When every sampled value differs the column is
// taken to be unique.  The column memoizes its sealed segments' share of
// the sample, so a refresh after a write reads only the delta's sampled
// rows.
func estimateDistinct(ic *colstore.IntColumn, lo, hi int64) int {
	n := ic.Len()
	if n == 0 {
		return 0
	}
	d, taken := ic.StrideDistinct(max(1, n/distinctSample))
	if d == taken { // likely unique
		d = n
	}
	if span := hi - lo + 1; int64(d) > span && span > 0 {
		d = int(span)
	}
	return d
}

// RefreshStats recomputes statistics for the named table (after loads).
func (c *Catalog) RefreshStats(name string) error {
	t, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("opt: unknown table %q", name)
	}
	c.AddTable(t)
	return nil
}

// AddIndex registers a secondary index on table.col, pinned to the
// table's current write epoch.
func (c *Catalog) AddIndex(table, col string, idx index.Index) {
	if c.indexes[table] == nil {
		c.indexes[table] = make(map[string]indexEntry)
	}
	var epoch int64
	if t, ok := c.tables[table]; ok {
		epoch = t.WriteEpoch()
	}
	c.indexes[table][col] = indexEntry{idx: idx, epoch: epoch}
}

// Table returns the registered table.
func (c *Catalog) Table(name string) (*colstore.Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("opt: unknown table %q", name)
	}
	return t, nil
}

// Stats returns the statistics for the named table.
func (c *Catalog) Stats(name string) (*TableStats, error) {
	s, ok := c.stats[name]
	if !ok {
		return nil, fmt.Errorf("opt: no statistics for table %q", name)
	}
	return s, nil
}

// Index returns the index on table.col, if one exists AND still covers
// the table: an index built before the latest write or merge is stale
// (it never sees the delta and compaction renumbers rows), so it is
// withheld from planning until rebuilt.
func (c *Catalog) Index(table, col string) (index.Index, bool) {
	e, ok := c.indexes[table][col]
	if !ok {
		return nil, false
	}
	if t, reg := c.tables[table]; reg && t.WriteEpoch() != e.epoch {
		return nil, false
	}
	return e.idx, true
}

// IndexEpoch returns the write epoch the index on table.col was built
// at (the planner stamps it into the access spec so the executor can
// re-verify at run time).
func (c *Catalog) IndexEpoch(table, col string) int64 {
	return c.indexes[table][col].epoch
}

// Tables lists registered table names.
func (c *Catalog) Tables() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}
