package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/opt"
	"repro/internal/txn"
	"repro/internal/vec"
)

// The engine's write path: DML statements execute synchronously at
// their virtual arrival time — INSERT appends to the table's delta,
// UPDATE/DELETE locate victims with the same snapshot-prefix scan
// kernels reads use, and all of it commits through the transaction
// manager (first-committer-wins validation, REDO logging, group-commit
// durability).  The priced work lands in the engine's lifetime meter so
// writes show up on the same energy books as queries.

// DMLResult reports one executed write statement.
type DMLResult struct {
	Stmt    string // canonical SQL
	Kind    opt.DMLKind
	Table   string
	Matched int   // rows the WHERE clause selected (UPDATE/DELETE)
	Applied int   // rows affected: inserted, updated, or deleted
	TS      int64 // commit timestamp
	Flushed bool  // paid a WAL flush (false = rode the group-commit window)
	Latency time.Duration
	Work    energy.Counters // victim scan + delta writes + durability
	Energy  energy.Breakdown
}

// Joules returns the modeled total energy of the write.
func (r *DMLResult) Joules() energy.Joules { return r.Energy.Total() }

// EstimateDML prices a write statement from catalog statistics without
// executing it — the serving front end's admission gate (per-client
// budgets charge this estimate, never the measured bill, so rejections
// stay schedule-invariant).
func (e *Engine) EstimateDML(d *opt.DML) (opt.Cost, error) {
	ts, err := e.cat.Stats(d.Table)
	if err != nil {
		return opt.Cost{}, err
	}
	return e.cm.Price(opt.EstimateDML(ts, d), 0), nil
}

// ExecDML executes one write statement, committing at virtual arrival
// time `at` (which paces the group-commit window).  Conflicts surface as
// txn.ErrConflict.
func (e *Engine) ExecDML(d *opt.DML, at time.Duration) (*DMLResult, error) {
	st, serr := e.cat.Sharded(d.Table)
	var t *colstore.Table
	if serr != nil {
		var err error
		t, err = e.cat.Table(d.Table)
		if err != nil {
			return nil, err
		}
	}
	res := &DMLResult{Stmt: d.String(), Kind: d.Kind, Table: d.Table}
	var work energy.Counters
	var tch *shardTouch
	if st != nil {
		tch = newShardTouch(st.NumShards())
	}
	tx := e.txm.Begin()
	switch d.Kind {
	case opt.DMLInsert:
		var err error
		if st != nil {
			err = e.bufferShardedInserts(tx, st, d, &work, tch)
		} else {
			err = e.bufferInserts(tx, t, d, &work)
		}
		if err != nil {
			tx.Abort()
			return nil, err
		}
	case opt.DMLUpdate, opt.DMLDelete:
		var matched int
		var err error
		if st != nil {
			matched, err = e.bufferShardedMutations(tx, st, d, &work, tch)
		} else {
			matched, err = e.bufferMutations(tx, t, d, &work)
		}
		if err != nil {
			tx.Abort()
			return nil, err
		}
		res.Matched = matched
	default:
		tx.Abort()
		return nil, fmt.Errorf("core: unknown DML kind %v", d.Kind)
	}
	info, err := tx.Commit(at)
	if err != nil {
		return nil, err
	}
	work.Add(info.Work)
	e.meter.Add(work)
	res.Applied = info.Applied
	if d.Kind == opt.DMLUpdate {
		// The log counts an update as tombstone + new version; the
		// statement affected Matched rows.
		res.Applied = res.Matched
	}
	res.TS = info.TS
	res.Flushed = info.Flushed
	res.Latency = info.Latency
	res.Work = work
	b := e.model.DynamicEnergy(work, e.cm.PState)
	b.Static = energy.StaticEnergy(e.cm.PState.Active, e.model.CPUTime(work, e.cm.PState))
	res.Energy = b
	// Keep planner estimates (and with them admission pricing) tracking
	// the table the statement just changed.  Sharded tables refresh only
	// what the statement touched: zone bounds widen in O(1) per routed
	// key, and only the hit shards re-stat — a full RecomputeBounds here
	// would rescan the whole table on every statement.
	if st != nil {
		for i, keys := range tch.keys {
			for _, k := range keys {
				st.WidenBounds(i, k)
			}
		}
		if err := e.cat.RefreshShardedShards(d.Table, tch.touched()); err != nil {
			return nil, err
		}
	} else if err := e.cat.RefreshStats(d.Table); err != nil {
		return nil, err
	}
	return res, nil
}

// bufferInserts validates and buffers INSERT tuples in schema order.
// Every schema column must be covered — delta rows are whole rows.
func (e *Engine) bufferInserts(tx *txn.TableTx, t *colstore.Table, d *opt.DML, work *energy.Counters) error {
	schema := t.Schema()
	cols := d.Cols
	if len(cols) == 0 {
		cols = make([]string, len(schema))
		for i, def := range schema {
			cols[i] = def.Name
		}
	}
	if len(cols) != len(schema) {
		return fmt.Errorf("core: INSERT INTO %s must cover all %d columns, got %d", d.Table, len(schema), len(cols))
	}
	pos := make([]int, len(cols)) // tuple slot -> schema slot
	for i, c := range cols {
		found := -1
		for si, def := range schema {
			if def.Name == c {
				found = si
			}
		}
		if found < 0 {
			return fmt.Errorf("core: table %s has no column %q", d.Table, c)
		}
		pos[i] = found
	}
	for _, row := range d.Rows {
		if len(row) != len(cols) {
			return fmt.Errorf("core: INSERT INTO %s: tuple has %d values, want %d", d.Table, len(row), len(cols))
		}
		vals := make([]any, len(schema))
		for i, v := range row {
			av, err := coerceValue(v, schema[pos[i]].Type, schema[pos[i]].Name)
			if err != nil {
				return err
			}
			vals[pos[i]] = av
		}
		tx.Insert(t, vals...)
		work.BytesWrittenDRAM += uint64(len(schema)) * 10
		work.Instructions += uint64(len(schema)) * 4
		work.TuplesOut++
	}
	return nil
}

// selectVictims runs the WHERE clause of an UPDATE/DELETE over t's
// snapshot prefix through the scans' row-selection kernel, coercing each
// literal to its column's type, and charges the scan to work.
func selectVictims(t *colstore.Table, preds []expr.Pred, snap int64, work *energy.Counters) (*vec.Bitvec, error) {
	preds = slices.Clone(preds)
	cols := make([]colstore.Column, len(preds))
	for i, p := range preds {
		col, err := t.Column(p.Col)
		if err != nil {
			return nil, err
		}
		if preds[i], err = coercePredTo(p, col.Type()); err != nil {
			return nil, err
		}
		cols[i] = col
	}
	sel, w := exec.SelectRows(t, preds, cols, snap, 0, t.RowsAsOf(snap))
	work.Add(w)
	return sel, nil
}

// bufferMutations locates UPDATE/DELETE victims with a snapshot-prefix
// scan at the transaction's snapshot and buffers the tombstones (and,
// for UPDATE, the replacement versions).
func (e *Engine) bufferMutations(tx *txn.TableTx, t *colstore.Table, d *opt.DML, work *energy.Counters) (int, error) {
	snap := tx.Snapshot()
	sel, err := selectVictims(t, d.Preds, snap, work)
	if err != nil {
		return 0, err
	}
	rows := sel.Indices()
	schema := t.Schema()
	var sets []setTarget
	if d.Kind == opt.DMLUpdate {
		for _, s := range d.Sets {
			found := -1
			for si, def := range schema {
				if def.Name == s.Col {
					found = si
				}
			}
			if found < 0 {
				return 0, fmt.Errorf("core: table %s has no column %q", d.Table, s.Col)
			}
			av, err := coerceValue(s.Val, schema[found].Type, s.Col)
			if err != nil {
				return 0, err
			}
			sets = append(sets, setTarget{slot: found, val: av})
		}
	}
	for _, r := range rows {
		id := t.RowID(int(r))
		if d.Kind == opt.DMLDelete {
			tx.Delete(t, id)
			work.Instructions += 16
			work.BytesWrittenDRAM += 40
			continue
		}
		// UPDATE: read the current version, apply the assignments, append
		// the new version (point reads priced like the index verify path).
		vals := make([]any, len(schema))
		for si, def := range schema {
			col, err := t.Column(def.Name)
			if err != nil {
				return 0, err
			}
			switch c := col.(type) {
			case *colstore.IntColumn:
				vals[si] = c.Get(int(r))
			case *colstore.FloatColumn:
				vals[si] = c.Get(int(r))
			case *colstore.StringColumn:
				vals[si] = c.Get(int(r))
			}
			work.CacheMisses++
			work.Instructions += 6
		}
		for _, s := range sets {
			vals[s.slot] = s.val
		}
		tx.Update(t, id, vals...)
		work.Instructions += 16 + uint64(len(schema))*4
		work.BytesWrittenDRAM += 40 + uint64(len(schema))*10
	}
	return len(rows), nil
}

type setTarget struct {
	slot int
	val  any
}

// coerceValue adapts a literal to the column type (the same numeric
// widening the planner applies to predicates).
func coerceValue(v expr.Value, typ colstore.Type, col string) (any, error) {
	switch typ {
	case colstore.Int64:
		if v.Kind == colstore.Int64 {
			return v.I, nil
		}
		if v.Kind == colstore.Float64 && float64(int64(v.F)) == v.F {
			return int64(v.F), nil
		}
	case colstore.Float64:
		if v.Kind == colstore.Float64 {
			return v.F, nil
		}
		if v.Kind == colstore.Int64 {
			return float64(v.I), nil
		}
	case colstore.String:
		if v.Kind == colstore.String {
			return v.S, nil
		}
	}
	return nil, fmt.Errorf("core: value %s does not fit column %q (%v)", v, col, typ)
}

// coercePredTo adapts a predicate literal to the column type.
func coercePredTo(p expr.Pred, typ colstore.Type) (expr.Pred, error) {
	switch {
	case typ == colstore.Float64 && p.Val.Kind == colstore.Int64:
		p.Val = expr.FloatVal(float64(p.Val.I))
	case typ == colstore.Int64 && p.Val.Kind == colstore.Float64:
		i := int64(p.Val.F)
		if float64(i) != p.Val.F {
			return p, fmt.Errorf("core: non-integral literal %g compared with BIGINT column %q", p.Val.F, p.Col)
		}
		p.Val = expr.IntVal(i)
	case typ == colstore.String && p.Val.Kind != colstore.String:
		return p, fmt.Errorf("core: numeric literal compared with VARCHAR column %q", p.Col)
	case typ != colstore.String && p.Val.Kind == colstore.String:
		return p, fmt.Errorf("core: string literal compared with numeric column %q", p.Col)
	}
	return p, nil
}

// Recover replays the engine's REDO log into its tables and refreshes
// their statistics — the post-crash path (see WithLog).  Returns the
// number of records applied; replay is idempotent, so recovering twice
// (or over partially applied state) changes nothing.
func (e *Engine) Recover() (int, error) {
	applied, err := e.txm.Replay(func(name string) *colstore.Table {
		t, terr := e.cat.Table(name)
		if terr != nil {
			return nil
		}
		return t
	})
	if err != nil {
		return applied, err
	}
	for _, name := range e.cat.Tables() {
		if rerr := e.cat.RefreshStats(name); rerr != nil {
			return applied, rerr
		}
	}
	// Sharded tables additionally recover their zone bounds and global
	// sequence counter from the replayed rows.
	for _, name := range e.cat.ShardedTables() {
		if rerr := e.cat.RefreshSharded(name); rerr != nil {
			return applied, rerr
		}
	}
	return applied, nil
}
