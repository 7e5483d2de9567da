package exec

import (
	"cmp"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/vec"
)

// runPlan executes a plan at a fixed DOP and returns the result plus the
// total metered counters.
func runPlan(t *testing.T, n Node, dop int) (*Relation, *Ctx) {
	t.Helper()
	ctx := NewCtx()
	ctx.Parallelism = dop
	rel, err := n.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rel, ctx
}

// refScan is the row-at-a-time oracle for Scan: it reads every row of
// the snapshot prefix with Get, keeps the rows that are visible at snap
// (RowVisible) and satisfy every predicate, and builds the projection row
// by row.  It shares no code with the operator's kernels.
func refScan(t *testing.T, tab *colstore.Table, sel []string, preds []expr.Pred, codes []string, snap int64) *Relation {
	t.Helper()
	if len(sel) == 0 {
		for _, d := range tab.Schema() {
			sel = append(sel, d.Name)
		}
	}
	predCols := make([]colstore.Column, len(preds))
	for i, p := range preds {
		c, err := tab.Column(p.Col)
		must(t, err)
		predCols[i] = c
	}
	matches := func(r int) bool {
		for i, p := range preds {
			var ok bool
			switch c := predCols[i].(type) {
			case *colstore.IntColumn:
				ok = refCmp(p.Op, c.Get(r), p.Val.I)
			case *colstore.FloatColumn:
				ok = refCmp(p.Op, c.Get(r), p.Val.F)
			case *colstore.StringColumn:
				ok = refCmp(p.Op, c.Get(r), p.Val.S)
			}
			if !ok {
				return false
			}
		}
		return true
	}
	var rows []int
	for r := 0; r < tab.RowsAsOf(snap); r++ {
		if tab.RowVisible(snap, r) && matches(r) {
			rows = append(rows, r)
		}
	}
	out := &Relation{N: len(rows)}
	for _, name := range sel {
		col, err := tab.Column(name)
		must(t, err)
		oc := Col{Name: name, Type: col.Type()}
		switch c := col.(type) {
		case *colstore.IntColumn:
			oc.I = make([]int64, 0, len(rows))
			for _, r := range rows {
				oc.I = append(oc.I, c.Get(r))
			}
		case *colstore.FloatColumn:
			oc.F = make([]float64, 0, len(rows))
			for _, r := range rows {
				oc.F = append(oc.F, c.Get(r))
			}
		case *colstore.StringColumn:
			if slices.Contains(codes, name) && c.Ordered() {
				oc.Dict = c.Dict()
				oc.I = make([]int64, 0, len(rows))
				for _, r := range rows {
					oc.I = append(oc.I, c.CodeColumn().Get(r))
				}
				break
			}
			oc.S = make([]string, 0, len(rows))
			for _, r := range rows {
				oc.S = append(oc.S, c.Get(r))
			}
		}
		out.Cols = append(out.Cols, oc)
	}
	return out
}

func refCmp[T cmp.Ordered](op vec.CmpOp, a, b T) bool {
	c := cmp.Compare(a, b)
	switch op {
	case vec.LT:
		return c < 0
	case vec.LE:
		return c <= 0
	case vec.GT:
		return c > 0
	case vec.GE:
		return c >= 0
	case vec.EQ:
		return c == 0
	}
	return c != 0
}

// TestParallelScanMatchesSerial: Scan at DOP 1, 3 and 8 must reproduce
// the serial row-at-a-time reference (refScan) — rows, order, and column
// bytes — across predicate types (packed int, float, dictionary string),
// projections, code-domain output, and index access (live, and stale so
// it falls back to the morsel grid), with counters identical at every
// DOP.  Each case runs on a one-morsel and a multi-morsel table, both
// with delta rows and tombstones, at the latest snapshot and at one that
// splits the delta.
func TestParallelScanMatchesSerial(t *testing.T) {
	type table struct {
		name string
		tab  *colstore.Table
		idx  AccessSpec
	}
	var tables []table
	for _, tb := range []struct {
		name string
		rows int
	}{{"one-morsel", MorselRows / 2}, {"multi-morsel", 2*MorselRows + 1000}} {
		tab := deltaOrdersTable(t, tb.rows, 300)
		ck, err := tab.IntCol("custkey")
		must(t, err)
		bt := index.NewBTree()
		for r := 0; r < tab.RowsAsOf(colstore.SnapLatest); r++ {
			bt.Insert(ck.Get(r), int32(r))
		}
		tables = append(tables, table{tb.name, tab,
			AccessSpec{Kind: IndexAccess, Index: bt, IndexCol: "custkey", IndexEpoch: tab.WriteEpoch()}})
	}
	asia := expr.Pred{Col: "region", Op: vec.EQ, Val: expr.StrVal("ASIA")}
	cases := []struct {
		name  string
		sel   []string
		preds []expr.Pred
		codes []string
		// access: "" full scan, "index" live index, "stale" an index
		// whose epoch no longer matches the table.
		access string
	}{
		{"no-preds-all-cols", nil, nil, nil, ""},
		{"int-lt", []string{"id", "amount"}, []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(40)}}, nil, ""},
		{"int-eq", []string{"id"}, []expr.Pred{{Col: "custkey", Op: vec.EQ, Val: expr.IntVal(7)}}, nil, ""},
		{"float-gt", []string{"id", "region"}, []expr.Pred{{Col: "amount", Op: vec.GT, Val: expr.FloatVal(900)}}, nil, ""},
		{"string-eq", []string{"id", "amount"}, []expr.Pred{asia}, nil, ""},
		{"string-ne-unknown", []string{"id"}, []expr.Pred{{Col: "region", Op: vec.NE, Val: expr.StrVal("NOWHERE")}}, nil, ""},
		{"string-lt", []string{"id"}, []expr.Pred{{Col: "region", Op: vec.LT, Val: expr.StrVal("EUROPE")}}, nil, ""},
		{"string-le", []string{"id"}, []expr.Pred{{Col: "region", Op: vec.LE, Val: expr.StrVal("ASIA")}}, nil, ""},
		{"string-gt", []string{"id"}, []expr.Pred{{Col: "region", Op: vec.GT, Val: expr.StrVal("ASIA")}}, nil, ""},
		{"conjunction", []string{"id", "region", "amount"}, []expr.Pred{
			{Col: "custkey", Op: vec.LT, Val: expr.IntVal(60)},
			{Col: "amount", Op: vec.GE, Val: expr.FloatVal(10)},
			{Col: "region", Op: vec.NE, Val: expr.StrVal("AFRICA")},
		}, nil, ""},
		{"code-domain", []string{"id", "region"}, []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(30)}}, []string{"region"}, ""},
		{"index-eq", []string{"id", "region"}, []expr.Pred{{Col: "custkey", Op: vec.EQ, Val: expr.IntVal(7)}, asia}, nil, "index"},
		{"index-lt", []string{"id", "amount"}, []expr.Pred{asia, {Col: "custkey", Op: vec.LT, Val: expr.IntVal(5)}}, nil, "index"},
		{"index-ge", []string{"id", "custkey"}, []expr.Pred{{Col: "custkey", Op: vec.GE, Val: expr.IntVal(90)}}, nil, "index"},
		{"index-stale", []string{"id", "amount"}, []expr.Pred{{Col: "custkey", Op: vec.LE, Val: expr.IntVal(3)}}, nil, "stale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, tb := range tables {
				scan := &Scan{Table: tb.tab, Select: tc.sel, Preds: tc.preds, Codes: tc.codes}
				switch tc.access {
				case "index":
					scan.Access = tb.idx
				case "stale":
					scan.Access = tb.idx
					scan.Access.IndexEpoch--
				}
				for _, snap := range []int64{colstore.SnapLatest, 150} {
					want := refScan(t, tb.tab, tc.sel, tc.preds, tc.codes, snap)
					var w1 energy.Counters
					for _, dop := range []int{1, 3, 8} {
						ctx := NewCtx()
						ctx.SnapTS = snap
						ctx.Parallelism = dop
						got, err := scan.Run(ctx)
						must(t, err)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s snap=%d DOP %d: scan diverged from the row reference (%d vs %d rows)",
								tb.name, snap, dop, got.N, want.N)
						}
						if w := ctx.Meter.Snapshot(); dop == 1 {
							w1 = w
						} else if w != w1 {
							t.Fatalf("%s snap=%d DOP %d: counters diverged from DOP 1\n got %+v\nwant %+v", tb.name, snap, dop, w, w1)
						}
					}
				}
			}
		})
	}
}

// TestParallelScanErrors: mistyped predicates and unknown columns must
// fail before any worker starts.
func TestParallelScanErrors(t *testing.T) {
	tab := ordersTable(t, 1000)
	if _, err := (&Scan{Table: tab, Preds: []expr.Pred{{Col: "custkey", Op: vec.EQ, Val: expr.StrVal("x")}}}).Run(NewCtx()); err == nil {
		t.Error("string literal against BIGINT column must error")
	}
	if _, err := (&Scan{Table: tab, Preds: []expr.Pred{{Col: "nope", Op: vec.EQ, Val: expr.IntVal(1)}}}).Run(NewCtx()); err == nil {
		t.Error("unknown predicate column must error")
	}
	if _, err := (&Scan{Table: tab, Select: []string{"nope"}}).Run(NewCtx()); err == nil {
		t.Error("unknown projection column must error")
	}
}

// TestParallelAggDOPInvariant is the acceptance test for the morsel
// executor, exercised under -race by the CI race job: the same grouped
// aggregation over a parallel scan must produce byte-identical relations
// and identical total energy counters at DOP 1 and DOP 8.
func TestParallelAggDOPInvariant(t *testing.T) {
	// 400k rows: the 80%-selective predicate still leaves the
	// aggregation input above ParallelAggRows, so both the scan and the
	// aggregation run the morsel path.
	tab := ordersTable(t, 400_000)
	plan := func() *HashAgg {
		return &HashAgg{
			Child: &Scan{
				Table:  tab,
				Select: []string{"custkey", "region", "amount"},
				Preds:  []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(80)}},
			},
			GroupBy: []string{"region"},
			Aggs: []expr.AggSpec{
				{Func: expr.AggSum, Col: "amount", As: "rev"},
				{Func: expr.AggCount, As: "n"},
				{Func: expr.AggMin, Col: "amount", As: "lo"},
				{Func: expr.AggMax, Col: "amount", As: "hi"},
				{Func: expr.AggAvg, Col: "amount", As: "avg"},
			},
		}
	}
	rel1, ctx1 := runPlan(t, plan(), 1)
	rel8, ctx8 := runPlan(t, plan(), 8)
	if rel1.N == 0 {
		t.Fatal("aggregation produced no groups")
	}
	if !reflect.DeepEqual(rel1, rel8) {
		t.Fatalf("relations differ between DOP 1 and DOP 8:\nDOP1: %+v\nDOP8: %+v", rel1, rel8)
	}
	w1, w8 := ctx1.Meter.Snapshot(), ctx8.Meter.Snapshot()
	if w1 != w8 {
		t.Fatalf("total counters differ between DOP 1 and DOP 8:\nDOP1: %+v\nDOP8: %+v", w1, w8)
	}
	if w1.IsZero() {
		t.Fatal("no work charged")
	}
}

// TestParallelAggMatchesSerialGroups: group keys, counts, and extrema of
// the morsel-parallel aggregation must equal the serial operator's (sums
// may differ in the last ulp from the different addition association, so
// they are compared with a relative tolerance).
func TestParallelAggMatchesSerialGroups(t *testing.T) {
	tab := ordersTable(t, 300_000)
	mk := func(scan Node) *HashAgg {
		return &HashAgg{
			Child:   scan,
			GroupBy: []string{"region"},
			Aggs: []expr.AggSpec{
				{Func: expr.AggSum, Col: "amount", As: "rev"},
				{Func: expr.AggCount, As: "n"},
				{Func: expr.AggMin, Col: "amount", As: "lo"},
				{Func: expr.AggMax, Col: "amount", As: "hi"},
			},
		}
	}
	// Serial reference: a 300k-row input would engage the parallel path
	// through Run, so drive the serial aggregation loop directly over
	// the scan's rows.
	scan := &Scan{Table: tab, Select: []string{"region", "amount"}}
	in, err := scan.Run(NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	serialAgg := mk(&relSource{rel: in})
	want := map[string][]float64{}
	{
		groupCols, aggCols, err := serialAgg.bindCols(in)
		if err != nil {
			t.Fatal(err)
		}
		tbl := newAggTable()
		serialAgg.aggRange(tbl, groupCols, aggCols, 0, in.N)
		for _, key := range tbl.order {
			st := tbl.groups[key]
			want[key] = []float64{st.sums[0], float64(st.count), st.mins[2], st.maxs[3]}
		}
	}
	got, _ := runPlan(t, mk(&Scan{Table: tab, Select: []string{"region", "amount"}}), 4)
	if got.N != len(want) {
		t.Fatalf("group count: got %d want %d", got.N, len(want))
	}
	regions, _ := got.Col("region")
	revs, _ := got.Col("rev")
	counts, _ := got.Col("n")
	los, _ := got.Col("lo")
	his, _ := got.Col("hi")
	for i := 0; i < got.N; i++ {
		key := string(binary.AppendUvarint(nil, uint64(len(regions.S[i])))) + regions.S[i]
		ref, ok := want[key]
		if !ok {
			t.Fatalf("unexpected group %q", regions.S[i])
		}
		if rel := abs(revs.F[i]-ref[0]) / (abs(ref[0]) + 1); rel > 1e-9 {
			t.Errorf("group %q sum: got %g want %g", regions.S[i], revs.F[i], ref[0])
		}
		if float64(counts.I[i]) != ref[1] {
			t.Errorf("group %q count: got %d want %g", regions.S[i], counts.I[i], ref[1])
		}
		if los.F[i] != ref[2] || his.F[i] != ref[3] {
			t.Errorf("group %q extrema: got (%g,%g) want (%g,%g)", regions.S[i], los.F[i], his.F[i], ref[2], ref[3])
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestScanPinnedCounters pins the exact counters of the scan shapes that
// ran serially before the morsel scan became the only scan operator — a
// one-morsel full scan with predicates over main+delta, and index EQ and
// range access — at the values the serial operator charged, at every DOP.
func TestScanPinnedCounters(t *testing.T) {
	delta := deltaOrdersTable(t, 40_000, 300)
	sealed := ordersTable(t, 40_000)
	ck, err := sealed.IntCol("custkey")
	must(t, err)
	bt := index.NewBTree()
	index.BuildFrom(bt, ck.Values())
	idx := AccessSpec{Kind: IndexAccess, Index: bt, IndexCol: "custkey"}
	amount := expr.Pred{Col: "amount", Op: vec.GT, Val: expr.FloatVal(1000)}
	cases := []struct {
		name string
		scan *Scan
		rows int
		want energy.Counters
	}{
		{"full-one-morsel", &Scan{Table: delta, Select: []string{"id", "custkey", "amount"}, Preds: []expr.Pred{
			{Col: "custkey", Op: vec.LT, Val: expr.IntVal(20)},
			{Col: "region", Op: vec.NE, Val: expr.StrVal("AFRICA")}}},
			23338, energy.Counters{Instructions: 189090, TuplesIn: 80600, TuplesOut: 85645, BytesReadDRAM: 64800, CacheMisses: 18617}},
		{"index-eq", &Scan{Table: sealed, Select: []string{"id", "amount"}, Preds: []expr.Pred{
			{Col: "custkey", Op: vec.EQ, Val: expr.IntVal(7)}, amount}, Access: idx},
			922, energy.Counters{Instructions: 9778, TuplesIn: 1011, TuplesOut: 1844, CacheMisses: 1473}},
		{"index-range", &Scan{Table: sealed, Select: []string{"id", "amount"}, Preds: []expr.Pred{
			{Col: "custkey", Op: vec.GE, Val: expr.IntVal(95)}, amount}, Access: idx},
			264, energy.Counters{Instructions: 2920, TuplesIn: 300, TuplesOut: 528, CacheMisses: 439}},
	}
	for _, c := range cases {
		for _, dop := range []int{1, 4} {
			rel, ctx := runPlan(t, c.scan, dop)
			if rel.N != c.rows {
				t.Errorf("%s DOP %d: %d rows, want %d", c.name, dop, rel.N, c.rows)
			}
			if w := ctx.Meter.Snapshot(); w != c.want {
				t.Errorf("%s DOP %d: counters moved\n got %+v\nwant %+v", c.name, dop, w, c.want)
			}
		}
	}
}
