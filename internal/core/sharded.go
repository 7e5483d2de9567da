package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sched"
	"repro/internal/txn"
)

// Sharded-table support on the engine facade: cutting a loaded table
// into value-range shards, and the DML path that routes writes to the
// owning shard by key value.  One transaction spans every touched
// shard, so a statement commits at one timestamp and visibility stays
// invariant under the shard count.

// ShardTable cuts a registered flat table into k equi-depth value-range
// shards on shardCol and re-registers it as a sharded table (the flat
// registration is superseded; subsequent queries plan shard-at-a-time
// with zone pruning).  Call it after the bulk load, before
// transactional writes — like Seal.
func (e *Engine) ShardTable(name, shardCol string, k int) (*colstore.ShardedTable, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.cat.Table(name)
	if err != nil {
		return nil, err
	}
	st, err := colstore.ShardTable(t, shardCol, k)
	if err != nil {
		return nil, err
	}
	e.cat.AddSharded(st)
	return st, nil
}

// ShardTableAligned cuts a registered flat table on the same routing
// cuts as an already-sharded table, so equi-joins between the two shard
// columns co-partition shard-pair by shard-pair (no radix scatter).
func (e *Engine) ShardTableAligned(name, shardCol, likeName string) (*colstore.ShardedTable, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	like, err := e.cat.Sharded(likeName)
	if err != nil {
		return nil, err
	}
	t, err := e.cat.Table(name)
	if err != nil {
		return nil, err
	}
	st, err := colstore.ShardTableAligned(t, shardCol, like)
	if err != nil {
		return nil, err
	}
	e.cat.AddSharded(st)
	return st, nil
}

// OfferRebalance plans the shard-narrowing rebalance of a sharded table
// and submits it as a BACKGROUND task under min-energy — "rebalance as
// a query", the same treatment OfferMerge gives the delta merge: it
// passes through the same admission, pricing, and dispatch as user
// queries, but the dispatcher defers it while any foreground query
// waits and races it to idle on an empty queue.  The horizon (oldest
// live snapshot) is resolved at execution time, so readers admitted
// before the rebalance runs keep their consistent view.
func (l *Loop) OfferRebalance(at time.Duration, table string) *Ticket {
	e := l.e
	id := l.nextID
	l.nextID = id + 1
	node, info, err := opt.PlanRebalance(e.cat, e.cm, table, l.oldestLiveSnap)
	if err != nil {
		t := &Ticket{Lease: exec.NewLease(1), done: true, IsRebalance: true, RebalanceTable: table}
		t.ID = id
		t.Rejected = true
		t.Err = fmt.Errorf("core: rebalance submission %d: %w", id, err)
		return t
	}
	t := &Ticket{Lease: exec.NewLease(1), node: node, IsRebalance: true, RebalanceTable: table}
	t.ID = id
	t.Objective = opt.MinEnergy
	t.PlanInfo = info
	l.register(t)
	s := l.mq.Offer(sched.Task{
		Seq:        id,
		Arrival:    at,
		Work:       info.Est.Work,
		ShareKey:   fmt.Sprintf("%d|rebalance|%s", opt.MinEnergy, info.ShareSig),
		Goal:       sched.GoalEnergy,
		MaxDOP:     1, // Rebalance is serial; extra cores would idle.
		Background: true,
	})
	if s.Rejected {
		l.reject(t)
	}
	return t
}

// shardTouch records, per shard index, the key values one statement
// routed into it and whether it buffered any write there, so the
// post-commit catalog refresh widens zone bounds and re-stats ONLY those
// shards.  Flat slices sized to the shard count — no maps, no iteration
// order to leak.
type shardTouch struct {
	keys [][]int64
	hit  []bool
}

func newShardTouch(k int) *shardTouch {
	return &shardTouch{keys: make([][]int64, k), hit: make([]bool, k)}
}

// add records a routed insert (new row or moved version) of key into shard i.
func (t *shardTouch) add(i int, key int64) {
	t.keys[i] = append(t.keys[i], key)
	t.hit[i] = true
}

// mark records a write (tombstone, in-place update) that cannot widen bounds.
func (t *shardTouch) mark(i int) { t.hit[i] = true }

// touched returns the hit shard indices in ascending order.
func (t *shardTouch) touched() []int {
	var out []int
	for i, h := range t.hit {
		if h {
			out = append(out, i)
		}
	}
	return out
}

// bufferShardedInserts validates INSERT tuples against the user schema,
// routes each row to its owning shard by key value, and stamps the next
// global sequence — the transactional counterpart of
// colstore.ShardedTable.Append.
func (e *Engine) bufferShardedInserts(tx *txn.TableTx, st *colstore.ShardedTable, d *opt.DML, work *energy.Counters, tch *shardTouch) error {
	schema := st.Schema()
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
	pos := make([]int, len(cols))
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
	ki := schema.ColIndex(st.ShardCol)
	for _, row := range d.Rows {
		if len(row) != len(cols) {
			return fmt.Errorf("core: INSERT INTO %s: tuple has %d values, want %d", d.Table, len(row), len(cols))
		}
		vals := make([]any, len(schema)+1)
		for i, v := range row {
			av, err := coerceValue(v, schema[pos[i]].Type, schema[pos[i]].Name)
			if err != nil {
				return err
			}
			vals[pos[i]] = av
		}
		vals[len(schema)] = st.AllocSeq()
		key := vals[ki].(int64)
		si := st.ShardFor(key)
		tx.Insert(st.Shard(si), vals...)
		tch.add(si, key)
		work.BytesWrittenDRAM += uint64(len(schema)+1) * 10
		work.Instructions += uint64(len(schema)+1) * 4
		work.TuplesOut++
	}
	return nil
}

// shardVictim is one UPDATE/DELETE target located on one shard, carrying
// its global sequence so mutations apply in the flat statement order.
type shardVictim struct {
	shard *colstore.Table
	idx   int // shard index within the sharded table
	row   int
	seq   int64
}

// bufferShardedMutations locates UPDATE/DELETE victims shard by shard —
// pruned shards never stream a byte — then applies the mutations in
// global sequence order: DELETE tombstones the victim in place; UPDATE
// tombstones it and routes the new version to the shard owning its
// (possibly changed) key with a fresh global sequence, so the new
// versions land in statement order at every shard count and
// co-partition alignment survives key-changing updates.
func (e *Engine) bufferShardedMutations(tx *txn.TableTx, st *colstore.ShardedTable, d *opt.DML, work *energy.Counters, tch *shardTouch) (int, error) {
	snap := tx.Snapshot()
	keep := exec.PruneShards(st, d.Preds)
	var victims []shardVictim
	for i, sh := range st.Shards() {
		if !keep[i] {
			continue
		}
		sel, err := selectVictims(sh, d.Preds, snap, work)
		if err != nil {
			return 0, err
		}
		seqc, err := sh.IntCol(colstore.ShardSeqCol)
		if err != nil {
			return 0, err
		}
		for _, r := range sel.Indices() {
			victims = append(victims, shardVictim{shard: sh, idx: i, row: int(r), seq: seqc.Get(int(r))})
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].seq < victims[j].seq })

	schema := st.Schema() // user schema; shard rows append the sequence
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
	ki := schema.ColIndex(st.ShardCol)
	for _, v := range victims {
		id := v.shard.RowID(v.row)
		if d.Kind == opt.DMLDelete {
			tx.Delete(v.shard, id)
			tch.mark(v.idx)
			work.Instructions += 16
			work.BytesWrittenDRAM += 40
			continue
		}
		vals := make([]any, len(schema)+1)
		for si, def := range schema {
			col, err := v.shard.Column(def.Name)
			if err != nil {
				return 0, err
			}
			switch c := col.(type) {
			case *colstore.IntColumn:
				vals[si] = c.Get(v.row)
			case *colstore.FloatColumn:
				vals[si] = c.Get(v.row)
			case *colstore.StringColumn:
				vals[si] = c.Get(v.row)
			}
			work.CacheMisses++
			work.Instructions += 6
		}
		for _, s := range sets {
			vals[s.slot] = s.val
		}
		vals[len(schema)] = st.AllocSeq()
		key := vals[ki].(int64)
		di := st.ShardFor(key)
		if dst := st.Shard(di); dst == v.shard {
			tx.Update(v.shard, id, vals...)
		} else {
			// The key moved across a cut: tombstone here, new version in
			// the owning shard, one commit timestamp for both.
			tx.Delete(v.shard, id)
			tx.Insert(dst, vals...)
		}
		tch.mark(v.idx)
		tch.add(di, key)
		work.Instructions += 16 + uint64(len(schema)+1)*4
		work.BytesWrittenDRAM += 40 + uint64(len(schema)+1)*10
	}
	return len(victims), nil
}
