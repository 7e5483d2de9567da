package core

import (
	"sort"
	"time"

	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sched"
	"repro/internal/sql"
)

// Multi-query serving: Engine.Submit enqueues queries with open-loop
// arrival offsets, Engine.Drain runs the whole backlog through the
// energy-aware multi-query scheduler (sched.MultiQ) — admission control,
// shared-core-budget arbitration by the P-state DOP pricer, and
// shared-scan batching of lookalike queries — then actually executes
// each scheduled group once and hands every member its relation.
//
// Determinism contract (what E21 and the -race tests assert on the
// 1-CPU CI box): for a fixed submission list, each query's relation and
// attributed counters are byte-identical at every core budget and every
// batching setting, because plans are DOP-invariant and attribution
// never depends on group membership.  What changes with the budget and
// batching is only the fleet's schedule and physical energy — the
// quantities the scheduler exists to improve.

// Submission is one queued query.
type Submission struct {
	ID      int
	Arrival time.Duration // open-loop arrival offset (virtual time)
	Q       *opt.Query
	// Objective the query is planned and scheduled under.
	Objective opt.Objective
	// EnergyBudget, when positive, overrides Objective per query the way
	// RunUnderBudget does: the fastest plan whose energy estimate fits
	// the budget wins (most frugal plan when none fits).
	EnergyBudget energy.Joules
}

// SchedulerConfig parameterizes Drain.
type SchedulerConfig struct {
	Budget     int  // global core budget shared by all admitted queries
	QueueDepth int  // max waiting query groups; 0 = unbounded
	BatchScans bool // shared-scan batching of lookalike queued queries
	// Arbitrate re-divides the budget across running queries with the
	// P-state DOP pricer; false is the naive all-queries-at-max-DOP
	// FCFS baseline.
	Arbitrate bool
}

// SubmissionResult is one query's outcome.
type SubmissionResult struct {
	ID       int
	Rejected bool
	// Err is set when the submission failed to plan (unknown table or
	// column, bad predicate type — Rejected is also set) or failed
	// during execution (Rel stays nil).  Either failure is isolated to
	// this submission and its shared-scan riders — the rest of the
	// backlog still drains.
	Err       error
	Rel       *exec.Relation
	Work      energy.Counters  // attributed (standalone) work counters
	Energy    energy.Breakdown // modeled per-query energy of that work
	Objective opt.Objective    // objective the plan ran under
	Start     time.Duration    // virtual dispatch time
	Finish    time.Duration
	Latency   time.Duration // includes queueing delay
	DOP       int           // widest core grant the query's group held
	GroupSize int           // lookalikes sharing the execution (1 = alone)
	Shared    bool          // true when another query's execution served this one
	PlanInfo  *opt.PlanInfo
}

// ScheduleReport summarizes one Drain.
type ScheduleReport struct {
	Results []SubmissionResult // by submission ID (Drain only; Loop.Report leaves it empty)
	Fleet   *sched.MQResult    // the virtual-time schedule
	// Attributed/Physical are the fleet meter's two books over the
	// MEASURED counters: per-query bills vs work the machine performed
	// (shared groups charged once).
	Attributed energy.Counters
	Physical   energy.Counters
	// FleetDynamic prices the physical book; with Fleet.Static it forms
	// the fleet energy bill.  SavedDynamic is the batching saving.
	FleetDynamic energy.Joules
	SavedDynamic energy.Joules
}

// FleetEnergy returns measured dynamic plus scheduled static energy.
func (r *ScheduleReport) FleetEnergy() energy.Joules { return r.FleetDynamic + r.Fleet.Static }

// EnergyPerQuery divides the fleet bill over completed queries.
func (r *ScheduleReport) EnergyPerQuery() energy.Joules {
	if r.Fleet.Completed == 0 {
		return 0
	}
	return r.FleetEnergy() / energy.Joules(r.Fleet.Completed)
}

// Submit parses SQL and enqueues it at the given arrival offset under
// the engine's current objective, returning the submission ID.
func (e *Engine) Submit(arrival time.Duration, text string) (int, error) {
	q, err := sql.Parse(text)
	if err != nil {
		return 0, err
	}
	return e.SubmitQuery(arrival, q, e.Objective(), 0), nil
}

// SubmitQuery enqueues an already-built logical query with its own
// objective and optional per-query energy budget.
func (e *Engine) SubmitQuery(arrival time.Duration, q *opt.Query, obj opt.Objective, budget energy.Joules) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := len(e.pending)
	e.pending = append(e.pending, Submission{
		ID: id, Arrival: arrival, Q: q, Objective: obj, EnergyBudget: budget,
	})
	return id
}

// Pending returns the number of queued submissions.
func (e *Engine) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// goalOf maps optimizer objectives onto scheduler goals.
func goalOf(o opt.Objective) sched.Goal {
	switch o {
	case opt.MinEnergy:
		return sched.GoalEnergy
	case opt.MinEDP:
		return sched.GoalEDP
	default:
		return sched.GoalTime
	}
}

// residentGB sums the catalog's table footprints, the platform DRAM the
// background-power terms integrate over.  The sum stays in integer
// bytes until the end: Catalog.Tables ranges over a map, and a float
// accumulated in map order would differ in the last ulp across runs —
// enough to flip a near-tie in the scheduler's marginal-core pricing
// and break the determinism contract.
func (e *Engine) residentGB() float64 {
	var bytes uint64
	for _, name := range e.cat.Tables() {
		if t, err := e.cat.Table(name); err == nil {
			bytes += t.Bytes()
		}
	}
	return float64(bytes) / 1e9
}

// Drain schedules and executes every queued submission, clearing the
// queue.  It is the batch wrapper over the incremental Loop: the
// backlog is replayed through the online machine in arrival order
// (ties by submission ID), each group executing exactly once with a
// core lease at its granted width when it retires, and every member
// gets the same relation with the full work attributed to it.
func (e *Engine) Drain(cfg SchedulerConfig) (*ScheduleReport, error) {
	e.mu.Lock()
	subs := e.pending
	e.pending = nil
	e.mu.Unlock()

	l := e.NewLoop(cfg)
	order := make([]*Submission, len(subs))
	for i := range subs {
		order[i] = &subs[i]
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].Arrival != order[j].Arrival {
			return order[i].Arrival < order[j].Arrival
		}
		return order[i].ID < order[j].ID
	})
	// The loop hands each ticket over as it settles; collect them for
	// the per-submission results.
	settled := make([]*Ticket, 0, len(order))
	for ai := 0; ai < len(order); {
		at := order[ai].Arrival
		settled = append(settled, l.AdvanceTo(at)...)
		for ai < len(order) && order[ai].Arrival == at {
			s := order[ai]
			if t := l.offer(s.ID, at, s.Q, s.Objective, s.EnergyBudget); t.Done() {
				settled = append(settled, t)
			}
			ai++
		}
		settled = append(settled, l.React()...)
	}
	settled = append(settled, l.RunToIdle()...)
	sort.Slice(settled, func(i, j int) bool { return settled[i].ID < settled[j].ID })
	rep := l.Report()
	rep.Results = make([]SubmissionResult, len(settled))
	for i, t := range settled {
		rep.Results[i] = t.SubmissionResult
	}
	return rep, nil
}
