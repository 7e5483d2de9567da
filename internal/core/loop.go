package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sched"
)

// Loop is the engine's incremental serving surface: the same
// plan→schedule→execute machinery Drain applies to a prebuilt backlog,
// exposed one event at a time so an online front end (internal/server)
// can interleave arrivals, virtual-time advancement, lease resizes, and
// completions.  Drain is now a batch wrapper over Loop, so the one-shot
// and online paths cannot drift apart.
//
// Execution happens at virtual completion time: when the scheduler
// retires a group, the group's physical plan runs exactly once under a
// revocable core lease sized to the group's widest grant, and every
// live member adopts the relation with the full work attributed to it.
// A member whose lease was canceled before the group retired is skipped
// (it reports exec.ErrCanceled); if every member canceled, the physical
// execution is elided entirely.
//
// The loop holds a ticket only while it is live: once a ticket settles
// it is handed to the caller (returned by Offer or by the call that
// retired its group) and the loop forgets it, so a long-running server
// keeps no plan or relation of a query it has answered.
//
// Loop is not goroutine-safe — the server serializes access under its
// own mutex, and Drain drives it from one goroutine.
type Loop struct {
	e      *Engine
	mq     *sched.Loop
	live   map[int]*Ticket // unsettled tickets by ID
	order  []int           // live ticket IDs in offer order
	nextID int
	fm     energy.FleetMeter
}

// Ticket is one in-flight query in the online loop.  Its embedded
// SubmissionResult settles when Done reports true: synchronously on
// admission rejection or plan failure, otherwise when the query's group
// retires from the virtual machine.
type Ticket struct {
	SubmissionResult
	// Lease is the query's revocable core grant.  The loop resizes it to
	// the group's granted width when execution starts; Cancel revokes it
	// (running operators stop at the next morsel boundary).
	Lease *exec.Lease
	// SnapTS is the MVCC snapshot the query was admitted at: it reads
	// exactly the writes committed at or before its arrival, however long
	// it queues and whatever commits meanwhile.
	SnapTS int64
	// IsMerge marks a background delta-merge ticket (see OfferMerge);
	// MergeTable names its target.
	IsMerge    bool
	MergeTable string
	// IsRebalance marks a background shard-rebalance ticket (see
	// OfferRebalance); RebalanceTable names its target.
	IsRebalance    bool
	RebalanceTable string

	node     exec.Node
	canceled bool
	done     bool
}

// Done reports whether the ticket's result fields have settled.
func (t *Ticket) Done() bool { return t.done }

// Cancel abandons the ticket: its lease is revoked, and when its group
// retires the loop skips this member during result adoption (the query
// reports exec.ErrCanceled).  Canceling a settled ticket is a no-op.
func (t *Ticket) Cancel() {
	if t.done {
		return
	}
	t.canceled = true
	t.Lease.Cancel()
}

// NewLoop opens an online scheduling loop over the engine.  The
// resident-DRAM footprint for the static-power floor is sampled once,
// here — load and seal tables before opening the loop.
func (e *Engine) NewLoop(cfg SchedulerConfig) *Loop {
	return &Loop{
		e: e,
		mq: sched.NewLoop(sched.MQConfig{
			Budget:     cfg.Budget,
			QueueDepth: cfg.QueueDepth,
			BatchScans: cfg.BatchScans,
			Arbitrate:  cfg.Arbitrate,
			Model:      e.model,
			PState:     e.cm.PState,
			MemGB:      e.residentGB(),
		}),
		live: make(map[int]*Ticket),
	}
}

// Now returns the loop's current virtual time.
func (l *Loop) Now() time.Duration { return l.mq.Now() }

// Queued returns the number of groups waiting for cores.
func (l *Loop) Queued() int { return l.mq.Queued() }

// Running returns the number of groups holding cores.
func (l *Loop) Running() int { return l.mq.Running() }

// Backlog returns the serial-equivalent CPU seconds of admitted,
// unfinished work — the basis for a Retry-After hint.
func (l *Loop) Backlog() time.Duration { return l.mq.Backlog() }

// NextFinish returns the virtual time of the earliest scheduled group
// completion, or false when the machine is idle.
func (l *Loop) NextFinish() (time.Duration, bool) { return l.mq.NextFinish() }

// Ticket returns a live ticket (nil for unknown or settled IDs).
func (l *Loop) Ticket(id int) *Ticket { return l.live[id] }

// Live returns the number of offered tickets that have not settled.
func (l *Loop) Live() int { return len(l.live) }

// Offer plans a query and submits it to the virtual machine at arrival
// time `at`, returning the ticket.  A positive energy budget overrides
// the objective per query the way RunUnderBudget does.  Plan failures
// settle the ticket synchronously (Rejected + Err), as do queue-depth
// rejections; call React after the last offer of an instant.
func (l *Loop) Offer(at time.Duration, q *opt.Query, obj opt.Objective, budget energy.Joules) *Ticket {
	id := l.nextID
	return l.offer(id, at, q, obj, budget)
}

// offer is Offer with an explicit ticket ID (Drain replays submissions
// whose IDs were assigned at Submit time).  IDs must be unique.
func (l *Loop) offer(id int, at time.Duration, q *opt.Query, obj opt.Objective, budget energy.Joules) *Ticket {
	if id >= l.nextID {
		l.nextID = id + 1
	}
	e := l.e
	var node exec.Node
	var info *opt.PlanInfo
	var err error
	if budget > 0 {
		var pick int
		pick, _, node, info, err = e.resolveObjective(q, budget)
		obj = budgetObjectives[pick]
	} else {
		node, info, err = e.cat.Plan(q, e.cm, obj)
	}
	if err != nil {
		// A submission that cannot plan fails alone; the loop keeps
		// serving.
		t := &Ticket{Lease: exec.NewLease(1), done: true}
		t.ID = id
		t.Rejected = true
		t.Err = fmt.Errorf("core: submission %d: %w", id, err)
		return t
	}
	return l.offerPlanned(id, at, node, info, obj)
}

// OfferPlanned submits an already-planned query — the entry point for a
// server-side plan cache, where a cache hit skips parse and plan
// entirely.  Plan nodes are stateless across runs, so the same node may
// back many tickets, but the loop executes at most one group at a time,
// never a node concurrently with itself.
func (l *Loop) OfferPlanned(at time.Duration, node exec.Node, info *opt.PlanInfo, obj opt.Objective) *Ticket {
	return l.offerPlanned(l.nextID, at, node, info, obj)
}

func (l *Loop) offerPlanned(id int, at time.Duration, node exec.Node, info *opt.PlanInfo, obj opt.Objective) *Ticket {
	if id >= l.nextID {
		l.nextID = id + 1
	}
	t := &Ticket{Lease: exec.NewLease(1), node: node, SnapTS: l.e.txm.SnapshotTS()}
	t.ID = id
	t.Objective = obj
	t.PlanInfo = info
	l.register(t)
	// The snapshot is part of the share key: a lookalike admitted after
	// an intervening commit reads different data and must not ride.
	s := l.mq.Offer(sched.Task{
		Seq:      id,
		Arrival:  at,
		Work:     info.Est.Work,
		ShareKey: fmt.Sprintf("%d|%d|%s", obj, t.SnapTS, info.ShareSig),
		Goal:     goalOf(obj),
	})
	if s.Rejected {
		l.reject(t)
	}
	return t
}

// OfferMerge plans the delta merge of a table and submits it as a
// BACKGROUND task under min-energy — "merge as a query": it passes
// through the same admission, pricing, and dispatch as user queries, but
// the dispatcher defers it while any foreground query waits and races it
// to idle on an empty queue.  The merge horizon (oldest live snapshot)
// is resolved at execution time, so readers admitted before the merge
// runs keep their consistent view.
func (l *Loop) OfferMerge(at time.Duration, table string) *Ticket {
	e := l.e
	id := l.nextID
	l.nextID = id + 1
	node, info, err := opt.PlanMerge(e.cat, e.cm, table, l.oldestLiveSnap)
	if err != nil {
		t := &Ticket{Lease: exec.NewLease(1), done: true, IsMerge: true, MergeTable: table}
		t.ID = id
		t.Rejected = true
		t.Err = fmt.Errorf("core: merge submission %d: %w", id, err)
		return t
	}
	t := &Ticket{Lease: exec.NewLease(1), node: node, IsMerge: true, MergeTable: table}
	t.ID = id
	t.Objective = opt.MinEnergy
	t.PlanInfo = info
	l.register(t)
	s := l.mq.Offer(sched.Task{
		Seq:        id,
		Arrival:    at,
		Work:       info.Est.Work,
		ShareKey:   fmt.Sprintf("%d|merge|%s", opt.MinEnergy, info.ShareSig),
		Goal:       sched.GoalEnergy,
		MaxDOP:     1, // Merge is serial; extra cores would idle.
		Background: true,
	})
	if s.Rejected {
		l.reject(t)
	}
	return t
}

// oldestLiveSnap returns the oldest snapshot any unfinished read ticket
// holds — the merge horizon: tombstones at or below it are invisible to
// every in-flight reader, so their rows may be compacted away.  Zero
// (compact everything) when no reader is in flight.  It scans only live
// tickets; mid-finalize, a ticket already settled in the same call is
// gone from the map (nil) or, within the retiring group, marked done.
func (l *Loop) oldestLiveSnap() int64 {
	var oldest int64
	for _, id := range l.order {
		t := l.live[id]
		if t == nil || t.done || t.IsMerge || t.IsRebalance || t.SnapTS <= 0 {
			continue
		}
		if oldest == 0 || t.SnapTS < oldest {
			oldest = t.SnapTS
		}
	}
	return oldest
}

func (l *Loop) register(t *Ticket) {
	l.live[t.ID] = t
	l.order = append(l.order, t.ID)
}

// reject settles a ticket the scheduler refused at admission and drops
// it from the live set.
func (l *Loop) reject(t *Ticket) {
	t.Rejected = true
	t.done = true
	delete(l.live, t.ID)
	l.order = slices.DeleteFunc(l.order, func(id int) bool { return id == t.ID })
}

// React runs the post-arrival half of an event — dispatch plus budget
// re-arbitration — and executes any groups that retired.  It returns
// the tickets that settled.
func (l *Loop) React() []*Ticket {
	return l.finalize(l.mq.React())
}

// AdvanceTo moves virtual time forward to t, executing every group that
// finishes at or before t (each departure re-prices the survivors).
// Returns the tickets that settled, in completion order.
func (l *Loop) AdvanceTo(t time.Duration) []*Ticket {
	return l.finalize(l.mq.AdvanceTo(t))
}

// RunToIdle drains the virtual machine, executing every remaining
// group.  Returns the tickets that settled.
func (l *Loop) RunToIdle() []*Ticket {
	return l.finalize(l.mq.RunToIdle())
}

// finalize turns scheduler completions into executed results: the first
// non-canceled member runs the physical plan once at the group's widest
// grant, and every other live member adopts the relation with the full
// work attributed to it (the fleet meter's two books record the gap).
// Settled tickets leave the live set.
func (l *Loop) finalize(cs []sched.Completion) []*Ticket {
	var out []*Ticket
	e := l.e
	for _, c := range cs {
		var runner *Ticket
		for _, seq := range c.Members {
			t := l.live[seq]
			ts := l.mq.Sched(seq)
			t.Start, t.Finish, t.Latency = ts.Start, ts.Finish, ts.Latency
			t.DOP, t.GroupSize = ts.MaxDOP, ts.GroupSize
			t.Shared = seq != c.Leader
			t.done = true
			if runner == nil && !t.canceled {
				runner = t
			}
			out = append(out, t)
		}
		if runner != nil {
			runner.Lease.Resize(runner.DOP)
			ctx := exec.NewCtx()
			ctx.Lease = runner.Lease
			ctx.SnapTS = runner.SnapTS
			rel, err := runner.node.Run(ctx)
			if err == nil && runner.IsMerge {
				// Compaction changed the physical layout; re-derive the
				// stats the planner prices against.
				err = e.cat.RefreshStats(runner.MergeTable)
			}
			if err == nil && runner.IsRebalance {
				// The rebalance re-cut the shards; refresh zone bounds and
				// every per-shard statistic.
				err = e.cat.RefreshSharded(runner.RebalanceTable)
			}
			if err != nil {
				// An execution failure is isolated like a plan failure:
				// this group reports the error, the loop keeps serving.
				runner.Err = fmt.Errorf("core: submission %d: %w", runner.ID, err)
			} else {
				runner.Rel = rel
				runner.Work = ctx.Meter.Snapshot()
				bill := e.model.DynamicEnergy(runner.Work, e.cm.PState)
				bill.Static = energy.StaticEnergy(e.cm.PState.Active, e.model.CPUTime(runner.Work, e.cm.PState))
				runner.Energy = bill
				l.fm.AddQuery(runner.Work)
				e.meter.Add(runner.Work) // lifetime work counts physical, not billed
			}
		}
		for _, seq := range c.Members {
			t := l.live[seq]
			if t == runner {
				continue
			}
			if t.canceled {
				t.Err = fmt.Errorf("core: submission %d: %w", t.ID, exec.ErrCanceled)
				continue
			}
			if runner.Err != nil {
				t.Err = runner.Err
				continue
			}
			t.Rel, t.Work, t.Energy = runner.Rel, runner.Work, runner.Energy
			l.fm.AddSharedQuery(t.Work)
		}
		for _, seq := range c.Members {
			delete(l.live, seq)
		}
	}
	l.order = slices.DeleteFunc(l.order, func(id int) bool { return l.live[id] == nil })
	return out
}

// Report snapshots the loop into the ScheduleReport Drain returns: the
// fleet schedule and the meter's two books.  Results stays empty — the
// loop keeps no settled ticket; Drain fills it from the tickets it was
// handed.  It may be called repeatedly (a serving /stats endpoint) —
// the lifetime meter is charged per execution, never here.
func (l *Loop) Report() *ScheduleReport {
	fleet := l.mq.Result()
	sort.Slice(fleet.Tasks, func(i, j int) bool { return fleet.Tasks[i].Seq < fleet.Tasks[j].Seq })
	report := &ScheduleReport{Fleet: fleet}
	report.Attributed = l.fm.Attributed()
	report.Physical = l.fm.Physical()
	report.FleetDynamic = l.e.model.DynamicEnergy(report.Physical, l.e.cm.PState).Total()
	report.SavedDynamic = l.fm.SavedDynamic(l.e.model, l.e.cm.PState)
	return report
}
