package index

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func allIndexes() []Index {
	return []Index{NewHash(), NewBTree(), NewPrefixTree()}
}

func TestLookupAllKinds(t *testing.T) {
	vals := workload.UniformInts(1, 20000, 5000) // duplicates guaranteed
	want := map[int64][]int32{}
	for i, v := range vals {
		want[v] = append(want[v], int32(i))
	}
	for _, idx := range allIndexes() {
		BuildFrom(idx, vals)
		if idx.Len() != len(want) {
			t.Errorf("%s: Len = %d want %d", idx.Name(), idx.Len(), len(want))
		}
		for k, rows := range want {
			got := idx.Lookup(k)
			if !reflect.DeepEqual(got, rows) {
				t.Fatalf("%s: Lookup(%d) = %v want %v", idx.Name(), k, got, rows)
			}
		}
		if idx.Lookup(99999999) != nil {
			t.Errorf("%s: missing key must return nil", idx.Name())
		}
		c := idx.LookupCost()
		if c.Instructions == 0 {
			t.Errorf("%s: lookup cost must be positive", idx.Name())
		}
	}
}

func TestNegativeKeysOrdered(t *testing.T) {
	vals := []int64{-5, 3, -1, 0, 7, -5, 2}
	for _, idx := range allIndexes() {
		if !idx.SupportsRange() {
			continue
		}
		BuildFrom(idx, vals)
		var keys []int64
		idx.Range(-100, 100, func(k int64, rows []int32) bool {
			keys = append(keys, k)
			return true
		})
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			t.Errorf("%s: range keys not ascending: %v", idx.Name(), keys)
		}
		if !reflect.DeepEqual(keys, []int64{-5, -1, 0, 2, 3, 7}) {
			t.Errorf("%s: keys = %v", idx.Name(), keys)
		}
	}
}

func TestRangeBoundsInclusive(t *testing.T) {
	vals := []int64{10, 20, 30, 40, 50}
	for _, idx := range allIndexes() {
		if !idx.SupportsRange() {
			continue
		}
		BuildFrom(idx, vals)
		var got []int64
		idx.Range(20, 40, func(k int64, _ []int32) bool {
			got = append(got, k)
			return true
		})
		if !reflect.DeepEqual(got, []int64{20, 30, 40}) {
			t.Errorf("%s: inclusive range = %v", idx.Name(), got)
		}
		// Early termination.
		got = got[:0]
		idx.Range(10, 50, func(k int64, _ []int32) bool {
			got = append(got, k)
			return len(got) < 2
		})
		if len(got) != 2 {
			t.Errorf("%s: early stop visited %d keys", idx.Name(), len(got))
		}
		// Empty range.
		count := 0
		idx.Range(41, 49, func(int64, []int32) bool { count++; return true })
		if count != 0 {
			t.Errorf("%s: empty range visited %d", idx.Name(), count)
		}
	}
}

func TestHashRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("hash Range must panic")
		}
	}()
	NewHash().Range(0, 1, func(int64, []int32) bool { return true })
}

func TestBTreeLargeAndHeight(t *testing.T) {
	tr := NewBTree()
	n := 200000
	vals := workload.UniformInts(7, n, 1<<40)
	BuildFrom(tr, vals)
	if tr.Height() < 2 {
		t.Errorf("tree of %d keys should have split: height=%d", n, tr.Height())
	}
	// Spot-check order via full range walk.
	prev := int64(-1 << 62)
	count := 0
	tr.Range(-1<<62, 1<<62, func(k int64, rows []int32) bool {
		if k <= prev {
			t.Fatalf("keys out of order: %d after %d", k, prev)
		}
		prev = k
		count += len(rows)
		return true
	})
	if count != n {
		t.Errorf("range walk saw %d postings, want %d", count, n)
	}
}

func TestBTreeMatchesSortedSliceProperty(t *testing.T) {
	// Property: the B+-tree's range result equals filtering a sorted copy.
	f := func(seed uint64, loRaw, hiRaw int64) bool {
		vals := workload.UniformInts(seed, 300, 1000)
		lo, hi := loRaw%1200, hiRaw%1200
		if lo > hi {
			lo, hi = hi, lo
		}
		tr := NewBTree()
		BuildFrom(tr, vals)
		var got []int64
		tr.Range(lo, hi, func(k int64, rows []int32) bool {
			for range rows {
				got = append(got, k)
			}
			return true
		})
		var want []int64
		for _, v := range vals {
			if v >= lo && v <= hi {
				want = append(want, v)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPrefixTreeMatchesBTreeProperty(t *testing.T) {
	f := func(seed uint64, loRaw, hiRaw int64) bool {
		vals := workload.UniformInts(seed, 200, 500)
		for i := range vals {
			vals[i] -= 250 // include negatives
		}
		lo, hi := loRaw%600-300, hiRaw%600-300
		if lo > hi {
			lo, hi = hi, lo
		}
		bt, pt := NewBTree(), NewPrefixTree()
		BuildFrom(bt, vals)
		BuildFrom(pt, vals)
		collect := func(idx Index) []int64 {
			var out []int64
			idx.Range(lo, hi, func(k int64, rows []int32) bool {
				out = append(out, k)
				return true
			})
			return out
		}
		return reflect.DeepEqual(collect(bt), collect(pt))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPrefixTreeDeepSplit(t *testing.T) {
	// Keys differing only in the lowest nibble force maximal-depth splits.
	pt := NewPrefixTree()
	pt.Insert(0x1000, 1)
	pt.Insert(0x1001, 2)
	pt.Insert(0x1002, 3)
	if got := pt.Lookup(0x1001); !reflect.DeepEqual(got, []int32{2}) {
		t.Fatalf("Lookup = %v", got)
	}
	if pt.Len() != 3 {
		t.Fatalf("Len = %d", pt.Len())
	}
}

// TestRangeAcceptsInt64Extremes: range indexes must serve bounds at the
// ends of the int64 domain — a full-domain range visits every key in
// order, a range pinned to one extreme visits exactly that key, and an
// empty range (lo > hi) visits nothing.
func TestRangeAcceptsInt64Extremes(t *testing.T) {
	keys := []int64{math.MinInt64, -1<<62 - 5, -3, 0, 7, 1<<62 + 5, math.MaxInt64}
	for _, idx := range []Index{NewBTree(), NewPrefixTree()} {
		for i, k := range keys {
			idx.Insert(k, int32(i))
		}
		visit := func(lo, hi int64) []int64 {
			var got []int64
			idx.Range(lo, hi, func(k int64, _ []int32) bool {
				got = append(got, k)
				return true
			})
			return got
		}
		if got := visit(math.MinInt64, math.MaxInt64); !reflect.DeepEqual(got, keys) {
			t.Errorf("%s: full-domain range visited %v", idx.Name(), got)
		}
		if got := visit(math.MinInt64, math.MinInt64); !reflect.DeepEqual(got, keys[:1]) {
			t.Errorf("%s: [MinInt64, MinInt64] visited %v", idx.Name(), got)
		}
		if got := visit(math.MaxInt64, math.MaxInt64); !reflect.DeepEqual(got, keys[6:]) {
			t.Errorf("%s: [MaxInt64, MaxInt64] visited %v", idx.Name(), got)
		}
		if got := visit(math.MaxInt64, math.MinInt64); got != nil {
			t.Errorf("%s: empty range visited %v", idx.Name(), got)
		}
	}
}
