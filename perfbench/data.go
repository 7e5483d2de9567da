package main

import (
	"fmt"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/workload"
)

const (
	// fullRows is the orders cardinality of a real run: the size
	// BenchmarkParallelScanAgg uses, so its profile carries over.
	fullRows = 1 << 20
	// shardCount is the value-range shard count of mixed's orders.
	shardCount = 16
	// zipfS is the customer-key skew of GenOrders and of mixed's reads.
	zipfS = 1.1
	// firstDay is GenOrders' epoch day; days advance with 1% probability
	// per row, so the last day is about firstDay + rows/100.
	firstDay = 15000
)

// custCount is the cust dimension size for an orders table of rows rows
// (the same customer count experiments.OrdersEngine uses).
func custCount(rows int) int { return rows/100 + 10 }

// lastDay estimates the last order day GenOrders produces for rows rows.
func lastDay(rows int) int64 { return firstDay + int64(rows/100) }

var nations = []string{
	"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
	"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
	"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
	"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
}

// buildEngine generates the workload's tables from the seed and loads
// them through the public engine API: orders for every workload, plus
// the cust dimension for analytics, the hash index on id for lookup,
// and 16 value-range shards on custkey for mixed.  The engine's own
// objective is min-energy, the server's default, so Engine.Query plans
// the same trees the server does.
func buildEngine(w string, seed uint64, rows int) (*core.Engine, error) {
	e := core.Open(core.WithObjective(opt.MinEnergy))
	o := workload.GenOrders(seed, rows, custCount(rows), zipfS)
	orders, err := e.CreateTable("orders", colstore.Schema{
		{Name: "id", Type: colstore.Int64},
		{Name: "custkey", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "amount", Type: colstore.Float64},
		{Name: "day", Type: colstore.Int64},
	})
	if err != nil {
		return nil, err
	}
	regions := make([]string, rows)
	for i, r := range o.Region {
		regions[i] = workload.RegionNames[r]
	}
	err = orders.Writer().
		Int64("id", o.OrderID...).
		Int64("custkey", o.CustKey...).
		String("region", regions...).
		Float64("amount", o.Amount...).
		Int64("day", o.OrderDay...).
		Close()
	if err != nil {
		return nil, fmt.Errorf("loading orders: %w", err)
	}
	if err := e.Seal("orders"); err != nil {
		return nil, err
	}
	switch w {
	case "analytics":
		if err := loadCust(e, seed, custCount(rows)); err != nil {
			return nil, err
		}
	case "lookup":
		if err := e.CreateIndex("orders", "id", "hash"); err != nil {
			return nil, err
		}
	case "mixed":
		if _, err := e.ShardTable("orders", "custkey", shardCount); err != nil {
			return nil, err
		}
		if err := e.Seal("orders"); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// loadCust loads the cust dimension: one row per customer key, with a
// seeded tier and nation.
func loadCust(e *core.Engine, seed uint64, n int) error {
	t, err := e.CreateTable("cust", colstore.Schema{
		{Name: "ckey", Type: colstore.Int64},
		{Name: "tier", Type: colstore.Int64},
		{Name: "nation", Type: colstore.String},
	})
	if err != nil {
		return err
	}
	rng := workload.NewRNG(seed ^ 0xc057)
	keys := make([]int64, n)
	tiers := make([]int64, n)
	nat := make([]string, n)
	for i := range keys {
		keys[i] = int64(i)
		tiers[i] = int64(rng.Intn(5))
		nat[i] = nations[rng.Intn(len(nations))]
	}
	if err := t.Writer().Int64("ckey", keys...).Int64("tier", tiers...).String("nation", nat...).Close(); err != nil {
		return fmt.Errorf("loading cust: %w", err)
	}
	return e.Seal("cust")
}
