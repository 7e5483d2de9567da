package opt

import (
	"fmt"
	"testing"

	"repro/internal/colstore"
	"repro/internal/expr"
	"repro/internal/vec"
	"repro/internal/workload"
)

// uniqueTable builds a sealed one-column table holding ids 0..n-1.
func uniqueTable(t testing.TB, n int) *colstore.Table {
	t.Helper()
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	tab := colstore.NewTable("u", colstore.Schema{{Name: "id", Type: colstore.Int64}})
	if err := tab.Writer().Int64("id", ids...).Close(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Seal(); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestUniqueDistinctSurvivesAppend: a unique column stays estimated as
// unique when its row count is not a multiple of the sample size.  The
// strided sample then reads one row more than distinctSample, and the
// uniqueness test must compare against the rows actually read — the
// estimate used to collapse to ~4,097 after one 32-row INSERT,
// overestimating an equality predicate's selectivity 256x at 2^20 rows.
func TestUniqueDistinctSurvivesAppend(t *testing.T) {
	for _, n := range []int{1 << 16, 1 << 20} {
		// Sealed at n+32 rows, and sealed at n rows plus a 32-row delta.
		sealed := uniqueTable(t, n+32)
		delta := uniqueTable(t, n)
		for i := 0; i < 32; i++ {
			if _, err := delta.ApplyInsert(0, 0, int64(n+i)); err != nil {
				t.Fatal(err)
			}
		}
		for name, tab := range map[string]*colstore.Table{"sealed": sealed, "delta": delta} {
			cat := NewCatalog()
			cat.AddTable(tab)
			ts, _ := cat.Stats("u")
			if got := ts.Cols["id"].Distinct; got != n+32 {
				t.Errorf("n=%d+32 %s: distinct = %d, want %d", n, name, got, n+32)
			}
			p := expr.Pred{Col: "id", Op: vec.EQ, Val: expr.IntVal(7)}
			if got, want := ts.Selectivity(p), 1/float64(n+32); got != want {
				t.Errorf("n=%d+32 %s: selectivity(id = 7) = %g, want %g", n, name, got, want)
			}
		}
	}
}

// BenchmarkRefreshShardedShards prices the per-statement statistics
// refresh on a 4-shard table at two shard sizes: each op appends one
// 32-row INSERT to one shard's delta and refreshes that shard's and the
// combined statistics.  Every 64 ops the shard is merged (untimed), as
// the background merge would, so the delta stays bounded.  The refresh
// reads only the delta's sampled rows, so ns/op and allocs/op should not
// grow with the shard size.
func BenchmarkRefreshShardedShards(b *testing.B) {
	for _, perShard := range []int{1 << 16, 1 << 18} {
		b.Run(fmt.Sprintf("rows_per_shard=%d", perShard), func(b *testing.B) {
			const k = 4
			n := k * perShard
			ids := make([]int64, n)
			for i := range ids {
				ids[i] = int64(i)
			}
			regions := make([]string, n)
			for i := range regions {
				regions[i] = workload.RegionNames[i%len(workload.RegionNames)]
			}
			tab := colstore.NewTable("orders", colstore.Schema{
				{Name: "id", Type: colstore.Int64},
				{Name: "custkey", Type: colstore.Int64},
				{Name: "region", Type: colstore.String},
				{Name: "amount", Type: colstore.Float64},
				{Name: "day", Type: colstore.Int64},
			})
			w := tab.Writer()
			w.Int64("id", ids...)
			w.Int64("custkey", workload.UniformInts(3, n, 1<<20)...)
			w.String("region", regions...)
			w.Float64("amount", make([]float64, n)...)
			w.Int64("day", workload.UniformInts(4, n, 3650)...)
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			st, err := colstore.ShardTable(tab, "custkey", k)
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Seal(); err != nil {
				b.Fatal(err)
			}
			cat := NewCatalog()
			cat.AddSharded(st)
			sh := st.Shard(0)
			touched := []int{0}
			nextID := int64(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%64 == 0 {
					b.StopTimer()
					if _, err := sh.Merge(0); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				for r := 0; r < 32; r++ {
					if _, err := sh.ApplyInsert(0, 0, nextID, int64(0), "ASIA", 1.5, int64(r), st.AllocSeq()); err != nil {
						b.Fatal(err)
					}
					nextID++
				}
				if err := cat.RefreshShardedShards("orders", touched); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
