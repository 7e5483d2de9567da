package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/workload"
)

// op is a request's kind: the endpoint it goes to and the check its
// reply gets.
type op uint8

const (
	opRead op = iota
	opInsert
	opUpdate
	opDelete
)

func (o op) isWrite() bool { return o != opRead }

func (o op) path() string {
	if o.isWrite() {
		return "/v1/write"
	}
	return "/v1/query"
}

// probeParts and probeWrites shape the write probe read-only workloads
// send: three parts on fresh tables, after the first two set-ups and
// after the timed region, each a warm-up write and 667 timed ones, so
// the probe times 2,001 writes spread over the run.  A part's 27
// INSERTs and 321 UPDATEs add 1,185 delta rows, well below the 4,096 at
// which the server offers a background merge: a merge of the flat
// orders made later UPDATEs and DELETEs about three times slower, so a
// probe that crossed it would time two regimes, split wherever the
// merge happened to land.
const (
	probeParts  = 3
	probeWrites = 668
)

// probeBlock is the length of a write-probe block: one INSERT, then
// UPDATEs and DELETEs by id in turn.
const probeBlock = 25

// insertRows is the row count of every mixed INSERT.
const insertRows = 32

// request is one pre-generated request: the JSON body sent.  want, when
// set, is the exact "rows" JSON the reply must carry; it is filled once
// during set-up from Engine.Query.
type request struct {
	op   op
	body []byte
	want *[]byte
}

// text returns the request's SQL.
func (r *request) text() string {
	var b struct {
		SQL string `json:"sql"`
	}
	if err := json.Unmarshal(r.body, &b); err != nil {
		panic(err) // newRequest marshaled it
	}
	return b.SQL
}

func newRequest(o op, text string) request {
	b, err := json.Marshal(struct {
		SQL string `json:"sql"`
	}{text})
	if err != nil {
		panic(err) // a string always marshals
	}
	return request{op: o, body: b}
}

// streams are the request sequences of one workload run.
type streams struct {
	warm  []request
	timed []request
	probe [][]request // the write probe's parts, on read-only workloads
}

// gen holds the state a workload's generators share: the seed's RNG,
// the data shape, and the next fresh order id for inserts.
type gen struct {
	rng    *workload.RNG
	rows   int
	nCust  int
	nextID int64
	cdf    []float64 // Zipf(zipfS) CDF over customer keys
}

func newGen(seed uint64, rows int) *gen {
	return &gen{rng: workload.NewRNG(seed), rows: rows, nCust: custCount(rows), nextID: int64(rows) + 1}
}

// genStreams builds every request a run of workload w can send.  The
// timed sequence is sized at a multiple of the rate the workload serves
// today; a run that exhausts it ends early and says so.
func genStreams(w string, seed uint64, rows int, seconds float64) streams {
	g := newGen(seed, rows)
	g.cdf = zipfCDF(g.nCust, zipfS)
	var s streams
	switch w {
	case "analytics":
		pool := g.analyticsPool()
		s.warm = append([]request(nil), pool...)
		s.timed = g.blocks(pool, int(seconds*200))
		s.probe = g.probe()
	case "lookup":
		s.warm = g.lookups(2000)
		s.timed = g.lookups(int(seconds * 40000))
		s.probe = g.probe()
	case "mixed":
		s.warm = g.mixed(100)
		s.timed = g.mixed(int(seconds * 1000))
	}
	return s
}

// analyticsPool is the fixed set of texts analytics draws from: four
// query shapes, each at six seeded literals spread over the data's
// range, so the cost mix is the same for every seed and the plan cache
// holds every text.
func (g *gen) analyticsPool() []request {
	const per = 6
	jit := func(span int64) int64 { return int64(g.rng.Intn(int(span/50) + 1)) }
	days := lastDay(g.rows) - firstDay
	var out []request
	for i := int64(0); i < per; i++ {
		ck := int64(g.nCust)*(i+2)/(per+2) + jit(int64(g.nCust))
		day := firstDay + days*(i+1)/(per+1) + jit(days)
		out = append(out, checked(
			// SUM(float) GROUP BY string: the legacy HashAgg path.
			newRequest(opRead, fmt.Sprintf("SELECT region, SUM(amount) AS rev FROM orders WHERE day >= %d GROUP BY region", day)),
			// Integer group key: the fused filter→aggregate kernel.
			newRequest(opRead, fmt.Sprintf("SELECT custkey, COUNT(*) AS n, SUM(day) AS d FROM orders WHERE day >= %d GROUP BY custkey ORDER BY d DESC LIMIT 20", day)),
			// Filter→agg with no group key.
			newRequest(opRead, fmt.Sprintf("SELECT COUNT(*) AS n, SUM(day) AS d FROM orders WHERE custkey < %d AND day >= %d", ck, day)),
			// Join against the cust dimension.
			newRequest(opRead, fmt.Sprintf("SELECT nation, SUM(amount) AS rev FROM orders JOIN cust ON orders.custkey = cust.ckey WHERE day < %d GROUP BY nation", day)),
		)...)
	}
	return out
}

// blocks repeats the pool in shuffled blocks of one copy each: every
// prefix of the sequence has nearly the pool's own mix.
func (g *gen) blocks(pool []request, n int) []request {
	out := make([]request, 0, n+len(pool))
	for len(out) < n {
		for _, i := range g.rng.Perm(len(pool)) {
			out = append(out, pool[i])
		}
	}
	return out[:n]
}

// lookups draws point reads by uniform order id: almost every text is
// new, so the plan cache misses.  A seeded one in lookupSample replies
// is checked against Engine.Query.
func (g *gen) lookups(n int) []request {
	out := make([]request, n)
	for i := range out {
		id := 1 + g.rng.Intn(g.rows)
		out[i] = newRequest(opRead, fmt.Sprintf("SELECT id, custkey, region, amount, day FROM orders WHERE id = %d", id))
		if g.rng.Intn(lookupSample) == 0 {
			out[i].want = new([]byte)
		}
	}
	return out
}

// lookupSample is the inverse share of lookup replies checked.
const lookupSample = 32

// checked marks requests for an output check.  Copies of a request
// share its want, so a pool's expected rows are computed once.
func checked(rs ...request) []request {
	for i := range rs {
		rs[i].want = new([]byte)
	}
	return rs
}

// mixed draws blocks of ten requests, shuffled: seven Zipf point reads
// by custkey, one 32-row INSERT, one UPDATE and one DELETE by order id.
// Read keys are stratified within a block, so a block's cost varies
// little across seeds while each key still follows Zipf.
func (g *gen) mixed(n int) []request {
	const reads = 7
	out := make([]request, 0, n+10)
	for len(out) < n {
		block := make([]request, 0, 10)
		for j := 0; j < reads; j++ {
			u := (float64(j) + g.rng.Float64()) / reads
			ck := sort.SearchFloat64s(g.cdf, u)
			block = append(block, newRequest(opRead, fmt.Sprintf("SELECT COUNT(*) AS n, SUM(day) AS d, MAX(id) AS last FROM orders WHERE custkey = %d", ck)))
		}
		block = append(block, g.insert(), g.update(), g.delete())
		for _, i := range g.rng.Perm(len(block)) {
			out = append(out, block[i])
		}
	}
	return out[:n]
}

// probe is the write probe's parts.
func (g *gen) probe() [][]request {
	out := make([][]request, probeParts)
	for i := range out {
		out[i] = g.writes(probeWrites)
	}
	return out
}

// writes is one part of the write probe: blocks of probeBlock writes, one INSERT
// followed by UPDATE and DELETE in turn.
func (g *gen) writes(n int) []request {
	out := make([]request, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i%probeBlock == 0:
			out = append(out, g.insert())
		case i%2 == 1:
			out = append(out, g.update())
		default:
			out = append(out, g.delete())
		}
	}
	return out
}

// insert is one customer's 32-row order batch.  The rows share a Zipf
// customer key, so the statement lands in one shard of mixed's orders
// and refreshes that shard's statistics.
func (g *gen) insert() request {
	var b strings.Builder
	b.WriteString("INSERT INTO orders VALUES ")
	ck := g.zipfKey()
	for r := 0; r < insertRows; r++ {
		if r > 0 {
			b.WriteString(", ")
		}
		region := workload.RegionNames[g.rng.Intn(len(workload.RegionNames))]
		amount := 1 + float64(g.rng.Intn(999900))/100
		fmt.Fprintf(&b, "(%d, %d, '%s', %.2f, %d)", g.nextID, ck, region, amount, lastDay(g.rows)+int64(g.rng.Intn(30)))
		g.nextID++
	}
	return newRequest(opInsert, b.String())
}

func (g *gen) update() request {
	amount := 1 + float64(g.rng.Intn(999900))/100
	return newRequest(opUpdate, fmt.Sprintf("UPDATE orders SET amount = %.2f WHERE id = %d", amount, 1+g.rng.Intn(g.rows)))
}

func (g *gen) delete() request {
	return newRequest(opDelete, fmt.Sprintf("DELETE FROM orders WHERE id = %d", 1+g.rng.Intn(g.rows)))
}

func (g *gen) zipfKey() int { return sort.SearchFloat64s(g.cdf, g.rng.Float64()) }

// zipfCDF is the cumulative distribution over ranks 0..n-1 with
// frequency proportional to 1/(rank+1)^s, the law GenOrders draws
// customer keys from.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return cdf
}
