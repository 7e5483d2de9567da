package colstore

import (
	"sync"
	"testing"

	"repro/internal/workload"
)

// naiveStrideDistinct is the row-at-a-time reference StrideDistinct must
// match: one Get per sampled row into a set.
func naiveStrideDistinct(c *IntColumn, step int) (distinct, taken int) {
	seen := map[int64]bool{}
	for i := 0; i < c.Len(); i += step {
		seen[c.Get(i)] = true
		taken++
	}
	return len(seen), taken
}

// TestStrideDistinctMatchesPointReads checks every codec, at strides that
// do and do not divide the segment size, as the column grows a raw delta,
// seals it, and changes stride between calls (the memo's rebuild path).
func TestStrideDistinctMatchesPointReads(t *testing.T) {
	for name, vals := range decodeShapes() {
		c := NewIntColumn()
		c.AppendSlice(vals)
		c.Seal()
		check := func(phase string) {
			t.Helper()
			for _, step := range []int{1, 3, 16, 127, 256, 1000} {
				d, n := c.StrideDistinct(step)
				wd, wn := naiveStrideDistinct(c, step)
				if d != wd || n != wn {
					t.Fatalf("%s %s step %d: got (%d, %d), want (%d, %d)", name, phase, step, d, n, wd, wn)
				}
			}
		}
		check("sealed")
		// A delta that repeats some main values and adds new ones.
		for i := 0; i < 777; i++ {
			if i%2 == 0 {
				c.Append(vals[i*13])
			} else {
				c.Append(int64(1<<40 + i))
			}
		}
		check("delta")
		c.Seal()
		check("resealed")
	}
}

func TestStrideDistinctEmptyAndUnsealed(t *testing.T) {
	c := NewIntColumn()
	if d, n := c.StrideDistinct(1); d != 0 || n != 0 {
		t.Fatalf("empty column: got (%d, %d)", d, n)
	}
	c.AppendSlice(workload.UniformInts(2, 5000, 300))
	d, n := c.StrideDistinct(3)
	if wd, wn := naiveStrideDistinct(c, 3); d != wd || n != wn {
		t.Fatalf("unsealed column: got (%d, %d), want (%d, %d)", d, n, wd, wn)
	}
}

// TestStrideDistinctConcurrent runs sampling calls against concurrent
// scans of the same sealed column; run it under -race.
func TestStrideDistinctConcurrent(t *testing.T) {
	vals := workload.SortedInts(5, 2*SegSize+17, 8)
	c := NewIntColumn()
	c.AppendSlice(vals)
	c.Seal()
	wd, wn := naiveStrideDistinct(c, 16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g%2 == 0 {
					if d, n := c.StrideDistinct(16 + i%2); i%2 == 0 && (d != wd || n != wn) {
						t.Errorf("concurrent StrideDistinct = (%d, %d), want (%d, %d)", d, n, wd, wn)
					}
				} else {
					out := make([]int64, c.Len())
					c.DecodeRange(0, c.Len(), out)
				}
			}
		}(g)
	}
	wg.Wait()
}
