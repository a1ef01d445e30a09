package main

import (
	"netrs"
	"netrs/internal/c3"
	"netrs/internal/fabric"
	"netrs/internal/kv"
	"netrs/internal/selection"
	"netrs/internal/sim"
	"netrs/internal/topo"
	wl "netrs/internal/workload"
)

// static holds the structures the per-layer drivers reuse.
type static struct {
	ft   *topo.Topology
	dep  wl.Deployment
	ring *kv.Ring
	rate float64 // offered load, requests per simulated second
}

// buildStatic builds the workload's static structures through the public
// constructors Run's setup calls, in the same order and with the same
// arguments: topo.NewFatTree, (sim.NewShardSet,) workload.Deploy,
// kv.NewRing, kv.NewServer for every server, and fabric.NewNetwork or
// fabric.NewShardedNetwork with the RSNode selector factory. setup_s times
// this; it stands in for Run's own setup until the program exposes that
// boundary itself.
func buildStatic(cfg netrs.Config, tr *tracer) (static, error) {
	var st static
	root := sim.NewRNG(cfg.Seed)
	sharded := cfg.EffectiveShards() > 1
	var (
		eng *sim.Engine
		set *sim.ShardSet
		err error
	)
	if !sharded {
		eng = sim.NewEngine()
	}

	s := tr.begin("topo.NewFatTree", "topo")
	st.ft, err = topo.NewFatTree(cfg.FatTreeK)
	tr.end(s, 1)
	if err != nil {
		return st, err
	}
	if sharded {
		s = tr.begin("sim.NewShardSet", "sim")
		set, err = sim.NewShardSet(st.ft.PodPartitions(), cfg.EffectiveShards(), cfg.Fabric.LinkLatency)
		tr.end(s, 1)
		if err != nil {
			return st, err
		}
	}

	s = tr.begin("workload.Deploy", "workload")
	st.dep, err = wl.Deploy(st.ft, cfg.Servers, cfg.Clients, root.Stream(1))
	tr.end(s, int64(cfg.Servers+cfg.Clients))
	if err != nil {
		return st, err
	}

	s = tr.begin("kv.NewRing", "kv")
	st.ring, err = kv.NewRing(cfg.Servers, cfg.Replication, cfg.VNodes, cfg.Seed)
	tr.end(s, int64(cfg.Servers*cfg.VNodes))
	if err != nil {
		return st, err
	}

	serverCfg := kv.ServerConfig{
		Parallelism:         cfg.Parallelism,
		MeanServiceTime:     cfg.MeanServiceTime,
		FluctuationInterval: cfg.FluctuationInterval,
		FluctuationRange:    cfg.FluctuationRange,
	}
	s = tr.begin("kv.NewServer", "kv")
	for i := 0; i < cfg.Servers; i++ {
		srvEng := eng
		if sharded {
			srvEng = set.Engine(st.ft.PartitionOf(st.dep.ServerHosts[i]))
		}
		if _, err = kv.NewServer(i, srvEng, serverCfg, root.Stream(uint64(10+i))); err != nil {
			break
		}
	}
	tr.end(s, int64(cfg.Servers))
	if err != nil {
		return st, err
	}

	if st.rate, err = wl.UtilizationRate(cfg.Utilization, cfg.Servers, cfg.Parallelism, cfg.MeanServiceTime); err != nil {
		return st, err
	}
	c3cfg := rsnodeC3Config(cfg, st.rate)
	if sharded {
		s = tr.begin("fabric.NewShardedNetwork", "fabric")
		_, err = fabric.NewShardedNetwork(set, st.ft, cfg.Fabric, func(_ uint16, e *sim.Engine) (fabric.Selector, error) {
			return selection.NewC3(c3cfg, e)
		})
	} else {
		s = tr.begin("fabric.NewNetwork", "fabric")
		_, err = fabric.NewNetwork(eng, st.ft, cfg.Fabric, func(uint16) (fabric.Selector, error) {
			return selection.NewC3(c3cfg, eng)
		})
	}
	tr.end(s, int64(len(st.ft.Switches())))
	return st, err
}

// rsnodeC3Config is the C3 configuration Run gives every RSNode selector
// under the NetRS schemes: the initial and maximum rates sized at the
// steady-state per-server demand.
func rsnodeC3Config(cfg netrs.Config, rate float64) c3.Config {
	c := c3.NewDefaultConfig()
	c.RateControl = cfg.RateControl
	perServerPerInterval := rate * (float64(c.RateInterval) / float64(sim.Second)) / float64(cfg.Servers)
	if perServerPerInterval > c.InitialRate {
		c.InitialRate = perServerPerInterval
	}
	if c.MaxRate < 8*perServerPerInterval {
		c.MaxRate = 8 * perServerPerInterval
	}
	return c
}
