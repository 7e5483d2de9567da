package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sql"
)

// Statistics identity: the catalog refreshes statistics incrementally —
// each column memoizes its sealed segments' share of the distinct
// sample, and a sharded write re-stats only the shards it touched — so
// after every statement the cached statistics must equal what a
// from-scratch recomputation gives.  The reference below is that
// recomputation: min/max from a bulk decode, the distinct estimate by
// one point read per sampled row, storage from the live layout.

// refDistinct is the point-read distinct estimate: sample every step-th
// row (about 4096 rows), and call the column unique when every sampled
// value differs.
func refDistinct(ic *colstore.IntColumn, lo, hi int64) int {
	n := ic.Len()
	step := max(1, n/min(4096, n))
	seen := map[int64]bool{}
	taken := 0
	for i := 0; i < n; i += step {
		seen[ic.Get(i)] = true
		taken++
	}
	d := len(seen)
	if d == taken {
		d = n
	}
	if span := hi - lo + 1; int64(d) > span && span > 0 {
		d = int(span)
	}
	return d
}

// refStats recomputes one table's statistics from scratch.
func refStats(t *colstore.Table) *opt.TableStats {
	ts := &opt.TableStats{Name: t.Name, Rows: t.Rows(), Cols: map[string]opt.ColStats{}, Storage: t.Storage()}
	for i, d := range t.Schema() {
		cs := opt.ColStats{Type: d.Type}
		if ts.Rows > 0 {
			cs.ScanBytesPerValue = float64(ts.Storage.Cols[i].StoredBytes) / float64(ts.Rows)
		}
		switch d.Type {
		case colstore.Int64:
			ic, _ := t.IntCol(d.Name)
			if vals := ic.Values(); len(vals) > 0 {
				cs.Min, cs.Max, cs.HasMinMax = slices.Min(vals), slices.Max(vals), true
				cs.Distinct = refDistinct(ic, cs.Min, cs.Max)
			}
		case colstore.String:
			sc, _ := t.StrCol(d.Name)
			cs.Distinct = sc.DictSize()
		}
		ts.Cols[d.Name] = cs
	}
	return ts
}

// refCombined folds reference shard statistics into the sharded table's
// combined statistics by the catalog's rule: rows and storage sum (the
// hidden sequence column excluded), min/max union, distinct counts sum
// capped by the row count and the domain span.
func refCombined(st *colstore.ShardedTable, shards []*opt.TableStats) *opt.TableStats {
	ts := &opt.TableStats{Name: st.Name, Cols: map[string]opt.ColStats{}}
	for _, ss := range shards {
		ts.Rows += ss.Rows
	}
	for ci, d := range st.Schema() {
		cs := opt.ColStats{Type: d.Type}
		var weighted float64
		agg := colstore.ColumnStorage{Name: d.Name, Segments: map[string]int{}}
		for _, ss := range shards {
			scs := ss.Cols[d.Name]
			if scs.HasMinMax {
				if !cs.HasMinMax || scs.Min < cs.Min {
					cs.Min = scs.Min
				}
				if !cs.HasMinMax || scs.Max > cs.Max {
					cs.Max = scs.Max
				}
				cs.HasMinMax = true
			}
			cs.Distinct += scs.Distinct
			weighted += scs.ScanBytesPerValue * float64(ss.Rows)
			cstg := ss.Storage.Cols[ci]
			agg.RawBytes += cstg.RawBytes
			agg.StoredBytes += cstg.StoredBytes
			for codec, n := range cstg.Segments {
				agg.Segments[codec] += n
			}
		}
		cs.Distinct = min(cs.Distinct, ts.Rows)
		if span := cs.Max - cs.Min + 1; cs.HasMinMax && int64(cs.Distinct) > span && span > 0 {
			cs.Distinct = int(span)
		}
		if ts.Rows > 0 {
			cs.ScanBytesPerValue = weighted / float64(ts.Rows)
		}
		ts.Cols[d.Name] = cs
		ts.Storage.Cols = append(ts.Storage.Cols, agg)
		ts.Storage.RawBytes += agg.RawBytes
		ts.Storage.StoredBytes += agg.StoredBytes
	}
	return ts
}

// checkStats compares every cached statistic of orders — the flat
// table, or each shard plus the combined view — with the reference.
func checkStats(t *testing.T, e *Engine, after string) {
	t.Helper()
	cat := e.Catalog()
	same := func(name string, want *opt.TableStats) {
		t.Helper()
		got, err := cat.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s: %s statistics diverged from the reference\n got: %+v\nwant: %+v", after, name, got, want)
		}
	}
	st, err := cat.Sharded("orders")
	if err != nil {
		tab, err := cat.Table("orders")
		if err != nil {
			t.Fatal(err)
		}
		same("orders", refStats(tab))
		return
	}
	var refs []*opt.TableStats
	for _, sh := range st.Shards() {
		ref := refStats(sh)
		same(sh.Name, ref)
		refs = append(refs, ref)
	}
	same("orders", refCombined(st, refs))
}

// growthTarget returns the table the step-boundary growth lands in — the
// flat table or the largest shard — and a custkey routed to it.
func growthTarget(t *testing.T, e *Engine) (*colstore.Table, int64) {
	t.Helper()
	if st, err := e.Catalog().Sharded("orders"); err == nil {
		best := 0
		for i, sh := range st.Shards() {
			if sh.Rows() > st.Shard(best).Rows() {
				best = i
			}
		}
		return st.Shard(best), st.Bounds()[best].Min
	}
	tab, err := e.Catalog().Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	return tab, 7
}

// TestStatsMatchReferenceAfterEveryStatement runs a seeded DML sequence
// on a flat table and on 4- and 16-shard tables — inserts, in-place and
// key-moving updates, deletes, growth across a sample-stride boundary,
// and a background merge (flat) or rebalance (sharded) ticket — and
// checks every statistic against the from-scratch reference after each
// step.
func TestStatsMatchReferenceAfterEveryStatement(t *testing.T) {
	for _, k := range []int{0, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			var e *Engine
			n := 16384 - 48 // the flat table crosses the stride-3→4 boundary
			if k == 0 {
				e = Open()
				loadOrders(t, e, n)
			} else {
				n = k * 8500 // shards past 8192 rows sample with stride ≥ 2
				e = shardedOrders(t, n, k)
			}
			checkStats(t, e, "load")
			rng := rand.New(rand.NewSource(int64(k) + 1))
			at := time.Millisecond
			nextID := int64(900000)
			run := func(stmt string) {
				t.Helper()
				execStmt(t, e, stmt, at)
				at += time.Millisecond
				checkStats(t, e, stmt[:min(len(stmt), 72)])
			}
			insert := func(cust int64, rows int) string {
				var b strings.Builder
				b.WriteString("INSERT INTO orders VALUES ")
				for r := 0; r < rows; r++ {
					if r > 0 {
						b.WriteString(", ")
					}
					fmt.Fprintf(&b, "(%d, %d, 'ASIA', %d.5, %d)", nextID, cust, r, 15000+r%40)
					nextID++
				}
				return b.String()
			}
			dmlRound := func() {
				run(insert(int64(rng.Intn(500)), 32))
				run(fmt.Sprintf("UPDATE orders SET amount = 1.25 WHERE id = %d", 1+rng.Intn(n)))
				run(fmt.Sprintf("UPDATE orders SET custkey = %d WHERE id = %d", rng.Intn(500), 1+rng.Intn(n)))
				run(fmt.Sprintf("DELETE FROM orders WHERE id = %d", 1+rng.Intn(n)))
			}
			dmlRound()
			dmlRound()

			tab, cust := growthTarget(t, e)
			before := tab.Rows()
			boundary := max(2, before/4096+1) * 4096
			run(insert(cust, boundary-before+5))
			if after := tab.Rows(); after < boundary || before >= boundary {
				t.Fatalf("growth of %s went %d -> %d rows, never crossing %d", tab.Name, before, after, boundary)
			}
			dmlRound()

			loop := e.NewLoop(SchedulerConfig{Budget: 1, Arbitrate: true})
			var tk *Ticket
			if k == 0 {
				tk = loop.OfferMerge(at, "orders")
			} else {
				tk = loop.OfferRebalance(at, "orders")
			}
			loop.React()
			loop.RunToIdle()
			if !tk.Done() || tk.Err != nil {
				t.Fatalf("background ticket: done=%v err=%v", tk.Done(), tk.Err)
			}
			checkStats(t, e, "background ticket")
			dmlRound()
		})
	}
}

// TestStatsRefreshConcurrentWithScans refreshes statistics while planned
// scans of the same tables run on other goroutines — the race detector's
// case for the columns' sample memo.
func TestStatsRefreshConcurrentWithScans(t *testing.T) {
	for _, k := range []int{0, 4} {
		var e *Engine
		if k == 0 {
			e = Open()
			loadOrders(t, e, 20000)
		} else {
			e = shardedOrders(t, 20000, k)
		}
		writeScript(t, e)
		q, err := sql.Parse("SELECT COUNT(*), SUM(day) FROM orders WHERE custkey < 300 AND id > 100")
		if err != nil {
			t.Fatal(err)
		}
		node, _, err := e.Plan(q, opt.MinTime)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if _, err := node.Run(exec.NewCtx()); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for i := 0; i < 10; i++ {
			var err error
			if k == 0 {
				err = e.Catalog().RefreshStats("orders")
			} else {
				err = e.Catalog().RefreshShardedShards("orders", []int{0, 1, 2, 3})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		checkStats(t, e, "concurrent refreshes")
	}
}
