package main

import (
	"fmt"

	"netrs"
	"netrs/internal/sim"
)

// workload is one named benchmark input: the experiment config every run
// of it uses, built in Go from netrs.DefaultConfig (the JSON codec drops
// Shards and StatsSampleCap, so it is not used here).
type workload struct {
	name string
	// configure sets the workload's departures from the §V-A defaults.
	configure func(*netrs.Config)
}

// Open loop throughout: the workload package's Poisson generators emit on
// schedule whether or not earlier requests have completed.
var workloads = []workload{
	{
		name: "cache16-writes",
		configure: func(c *netrs.Config) {
			c.Requests = 300_000
			c.Scheme = netrs.SchemeNetRSCache
			c.CacheBytes = 512 << 10
			c.WriteFraction = 0.02
		},
	},
	{
		name: "tor16-readonly",
		configure: func(c *netrs.Config) {
			c.Requests = 300_000
			c.Scheme = netrs.SchemeNetRSToR
		},
	},
	// The two NetRS-ILP cells below run away under known defects, so
	// BENCHMARK.json does not list them (README.md); every traced run
	// still runs both at the workload seed and reports their tails.
	{
		// The paper's §V-A cell, unchanged.
		name: "paper16-ilp",
		configure: func(c *netrs.Config) {
			c.Requests = 300_000
			c.Scheme = netrs.SchemeNetRSILP
		},
	},
	{
		// The `netrs-sim -topo scale32` preset with controller epochs on
		// the sharded engine.
		name: "scale32-sharded",
		configure: func(c *netrs.Config) {
			c.Requests = 150_000
			c.FatTreeK, c.Servers, c.Clients, c.Generators = 32, 800, 4000, 1600
			c.Scheme = netrs.SchemeNetRSILP
			c.Shards = 2
			c.ControllerInterval = 250 * sim.Millisecond
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config is the workload's experiment at one simulation seed.
func (w workload) config(seed uint64) netrs.Config {
	c := netrs.DefaultConfig()
	w.configure(&c)
	c.Seed = seed
	return c
}

// simSeeds is how many simulation seeds one benchmark run derives from its
// workload seed; the end-to-end metrics are medians over them.
const simSeeds = 8

// seeds expands the benchmark seed into the workload's simulation seeds;
// the first is the benchmark seed itself, so a one-seed run of the
// workload reproduces `netrs-sim -seed <seed>` with the same flags.
func (w workload) seeds(base uint64) []uint64 {
	return append([]uint64{base}, netrs.DeriveSeeds(base, simSeeds-1)...)
}
