package main

import (
	"fmt"
	"sort"
	"time"

	"netrs"
	"netrs/internal/c3"
	"netrs/internal/cache"
	"netrs/internal/dist"
	"netrs/internal/fabric"
	"netrs/internal/kv"
	"netrs/internal/placement"
	"netrs/internal/selection"
	"netrs/internal/sim"
	"netrs/internal/stats"
	"netrs/internal/topo"
)

// The drivers time calls into each layer's public API from outside, with
// the workload's parameters. Each returns the median host time per call
// over a few batches; a driver's span counts the calls it made.

// batches is how many timed batches a driver's median is taken over.
const batches = 5

// sink keeps the compiler from discarding driver results.
var sink uint64

// driver is one per-layer timing loop.
type driver struct {
	name, layer, unit string
	run               func(d *drivers) (perCall float64, calls int64, err error)
}

// drivers holds the workload inputs the loops share.
type drivers struct {
	cfg  netrs.Config
	st   static
	rng  *sim.RNG
	keys []uint64 // Zipf keys drawn as the workload draws them
	n    int      // calls per batch for the nanosecond-scale loops
}

// medianPer runs body once untimed, then batches times, and returns the
// median host nanoseconds per unit body reports, and the units counted.
func medianPer(body func() int64) (float64, int64) {
	body()
	var per []float64
	var total int64
	for b := 0; b < batches; b++ {
		start := time.Now()
		units := body()
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(units))
		total += units
	}
	sort.Float64s(per)
	return per[len(per)/2], total
}

var layerDrivers = []driver{
	{"sim.event_ns", "sim", "ns", (*drivers).simEvent},
	{"fabric.hop_ns", "fabric", "ns", (*drivers).fabricHop},
	{"fabric.invalidation_fanout_us", "fabric", "us", (*drivers).invalidationFanout},
	{"c3.pick_ns", "c3", "ns", (*drivers).c3Pick},
	{"c3.feedback_ns", "c3", "ns", (*drivers).c3Feedback},
	{"kv.lookup_ns", "kv", "ns", (*drivers).kvLookup},
	{"dist.zipf_draw_ns", "dist", "ns", (*drivers).zipfDraw},
	{"topo.route_ns", "topo", "ns", (*drivers).topoRoute},
	{"cache.lookup_ns", "cache", "ns", (*drivers).cacheLookup},
	{"cache.admit_ns", "cache", "ns", (*drivers).cacheAdmit},
	{"cache.invalidate_ns", "cache", "ns", (*drivers).cacheInvalidate},
	{"placement.solve_ms", "placement", "ms", (*drivers).placementSolve},
	{"stats.record_ns", "stats", "ns", (*drivers).statsRecord},
}

func newDrivers(cfg netrs.Config, st static, n int) (*drivers, error) {
	d := &drivers{cfg: cfg, st: st, rng: sim.NewRNG(cfg.Seed).Stream(7), n: n}
	z, err := dist.NewZipf(cfg.Keys, cfg.ZipfTheta, d.rng.Stream(1))
	if err != nil {
		return nil, err
	}
	z = z.Scrambled()
	d.keys = make([]uint64, 1<<16)
	for i := range d.keys {
		d.keys[i] = z.Draw()
	}
	return d, nil
}

func (d *drivers) key(i int) uint64 { return d.keys[i&(len(d.keys)-1)] }

// hostPairs draws distinct (src, dst) host pairs.
func (d *drivers) hostPairs(hosts []topo.NodeID, n int) [][2]topo.NodeID {
	pairs := make([][2]topo.NodeID, n)
	for i := range pairs {
		a := d.rng.Intn(len(hosts))
		b := d.rng.Intn(len(hosts) - 1)
		if b >= a {
			b++
		}
		pairs[i] = [2]topo.NodeID{hosts[a], hosts[b]}
	}
	return pairs
}

// simEvent: ScheduleArg plus Step with the agenda held at the workload's
// depth — one pending arrival per generator and, per server, Np service
// completions plus its fluctuation timer.
func (d *drivers) simEvent() (float64, int64, error) {
	eng := sim.NewEngine()
	delays := make([]sim.Time, 4096)
	for i := range delays {
		delays[i] = sim.Time(d.rng.ExpFloat64()*float64(d.cfg.MeanServiceTime)) + 1
	}
	var fn sim.ArgHandler = func(any) {}
	depth := d.cfg.Generators + d.cfg.Servers*(d.cfg.Parallelism+1)
	for i := 0; i < depth; i++ {
		eng.MustScheduleArg(delays[i&4095], fn, nil)
	}
	per, calls := medianPer(func() int64 {
		for i := 0; i < d.n; i++ {
			eng.MustScheduleArg(delays[i&4095], fn, nil)
			eng.Step()
		}
		return int64(d.n)
	})
	return per, calls, nil
}

// fabricHop: packets launched between random host pairs and echoed once
// by every destination host; the cost per link traversal is wall time over
// the forwards Network.Stats counts.
func (d *drivers) fabricHop() (float64, int64, error) {
	eng := sim.NewEngine()
	net, err := fabric.NewNetwork(eng, d.st.ft, d.cfg.Fabric, func(uint16) (fabric.Selector, error) {
		return &selection.RoundRobin{}, nil
	})
	if err != nil {
		return 0, 0, err
	}
	var sendErr error
	for _, h := range d.st.ft.Hosts() {
		host := h
		echo := func(p *fabric.Packet) {
			if p.Key != 0 {
				return
			}
			q := net.NewPacket()
			q.ReqID, q.Key, q.Dst = p.ReqID, 1, p.Src
			if err := net.SendDirect(q, host); err != nil {
				sendErr = err
			}
		}
		if err := net.AttachHost(h, echo); err != nil {
			return 0, 0, err
		}
	}
	pairs := d.hostPairs(d.st.ft.Hosts(), 4096)
	const inFlight = 256
	launches := d.n / 8
	per, forwards := medianPer(func() int64 {
		before, _, _ := net.Stats()
		for i := 0; i < launches; i++ {
			p := net.NewPacket()
			p.ReqID, p.Dst = uint64(i), pairs[i&4095][1]
			if err := net.SendDirect(p, pairs[i&4095][0]); err != nil {
				sendErr = err
			}
			if i%inFlight == inFlight-1 {
				eng.Run()
			}
		}
		eng.Run()
		after, _, _ := net.Stats()
		return int64(after - before)
	})
	return per, forwards, sendErr
}

// cacheConfig is the workload's per-ToR cache; a workload without a cache
// tier is timed with the cache16-writes budget.
func (d *drivers) cacheConfig() cache.Config {
	budget := d.cfg.CacheBytes
	if budget == 0 {
		budget = 512 << 10
	}
	return cache.Config{
		Budget:     budget,
		AdmitAfter: d.cfg.CacheAdmitAfter,
		MinItem:    d.cfg.CacheItemMinBytes,
		MaxItem:    d.cfg.CacheItemMaxBytes,
	}
}

// invalidationFanout: one write's coherence fan-out, SendInvalidation from
// a server host to every ToR, run until each ToR cache has consumed it.
// Reported in microseconds per fan-out.
func (d *drivers) invalidationFanout() (float64, int64, error) {
	eng := sim.NewEngine()
	net, err := fabric.NewNetwork(eng, d.st.ft, d.cfg.Fabric, func(uint16) (fabric.Selector, error) {
		return &selection.RoundRobin{}, nil
	})
	if err != nil {
		return 0, 0, err
	}
	var tors []topo.NodeID
	for _, op := range net.OperatorsSorted() {
		if op.Tier() != topo.TierToR {
			continue
		}
		c, err := cache.New(d.cacheConfig())
		if err != nil {
			return 0, 0, err
		}
		if err := op.EnableCache(c, fabric.CacheModeSelector); err != nil {
			return 0, 0, err
		}
		tors = append(tors, op.Switch())
	}
	servers := d.st.dep.ServerHosts
	writes := d.n / (4 * len(tors))
	if writes < 1 {
		writes = 1
	}
	var sendErr error
	per, calls := medianPer(func() int64 {
		for i := 0; i < writes; i++ {
			from := servers[i%len(servers)]
			for _, tor := range tors {
				p := net.NewPacket()
				p.ReqID, p.Key = uint64(i), d.key(i)
				if err := net.SendInvalidation(p, from, tor); err != nil {
					sendErr = err
				}
			}
			eng.Run()
		}
		return int64(writes)
	})
	return per / 1e3, calls, sendErr
}

// candidateSets are the RF replica sets of the workload's Zipf keys.
func (d *drivers) candidateSets() ([][]int, error) {
	sets := make([][]int, 4096)
	for i := range sets {
		r, err := d.st.ring.Replicas(d.st.ring.GroupOfKey(d.key(i)))
		if err != nil {
			return nil, err
		}
		sets[i] = r
	}
	return sets, nil
}

// clock is a settable c3.Clock: the driver advances it by one mean
// interarrival of the offered load per call.
type clock struct{ now sim.Time }

func (c *clock) Now() sim.Time { return c.now }

func (d *drivers) newC3() (*c3.Selector, *clock, sim.Time, error) {
	clk := &clock{}
	sel, err := c3.NewSelectorWithClock(rsnodeC3Config(d.cfg, d.st.rate), clk)
	step := sim.Time(float64(sim.Second)/d.st.rate) + 1
	return sel, clk, step, err
}

// c3Pick: Pick over RF candidate sets, as an RSNode does per request.
func (d *drivers) c3Pick() (float64, int64, error) {
	sets, err := d.candidateSets()
	if err != nil {
		return 0, 0, err
	}
	sel, clk, step, err := d.newC3()
	if err != nil {
		return 0, 0, err
	}
	var pickErr error
	per, calls := medianPer(func() int64 {
		for i := 0; i < d.n; i++ {
			clk.now += step
			s, _, err := sel.Pick(sets[i&4095])
			if err != nil {
				pickErr = err
			}
			sink += uint64(s)
		}
		return int64(d.n)
	})
	return per, calls, pickErr
}

// c3Feedback: OnResponse with server status piggybacked on a response.
func (d *drivers) c3Feedback() (float64, int64, error) {
	sets, err := d.candidateSets()
	if err != nil {
		return 0, 0, err
	}
	sel, clk, step, err := d.newC3()
	if err != nil {
		return 0, 0, err
	}
	lat := make([]sim.Time, 4096)
	queue := make([]int, 4096)
	for i := range lat {
		lat[i] = sim.Time(d.rng.ExpFloat64()*float64(d.cfg.MeanServiceTime)) + 1
		queue[i] = d.rng.Intn(2 * d.cfg.Parallelism)
	}
	svc := float64(d.cfg.MeanServiceTime)
	per, calls := medianPer(func() int64 {
		for i := 0; i < d.n; i++ {
			clk.now += step
			j := i & 4095
			sel.OnResponse(sets[j][i%len(sets[j])], lat[j], kv.Status{QueueSize: queue[j], ServiceTimeNs: svc})
		}
		return int64(d.n)
	})
	return per, calls, nil
}

// kvLookup: GroupOfKey plus Replicas on Zipf keys.
func (d *drivers) kvLookup() (float64, int64, error) {
	var lookupErr error
	per, calls := medianPer(func() int64 {
		for i := 0; i < d.n; i++ {
			r, err := d.st.ring.Replicas(d.st.ring.GroupOfKey(d.key(i)))
			if err != nil {
				lookupErr = err
			}
			sink += uint64(len(r))
		}
		return int64(d.n)
	})
	return per, calls, lookupErr
}

// zipfDraw: one scrambled Zipf key draw over the workload's key space.
func (d *drivers) zipfDraw() (float64, int64, error) {
	z, err := dist.NewZipf(d.cfg.Keys, d.cfg.ZipfTheta, d.rng.Stream(2))
	if err != nil {
		return 0, 0, err
	}
	z = z.Scrambled()
	per, calls := medianPer(func() int64 {
		for i := 0; i < d.n; i++ {
			sink += z.Draw()
		}
		return int64(d.n)
	})
	return per, calls, nil
}

// topoRoute: ECMP RouteInto between random host pairs.
func (d *drivers) topoRoute() (float64, int64, error) {
	pairs := d.hostPairs(d.st.ft.Hosts(), 4096)
	buf := make([]topo.NodeID, 0, 8)
	var routeErr error
	per, calls := medianPer(func() int64 {
		for i := 0; i < d.n; i++ {
			pr := pairs[i&4095]
			var err error
			if buf, err = d.st.ft.RouteInto(buf[:0], pr[0], pr[1], uint64(i)*0x9e3779b97f4a7c15); err != nil {
				routeErr = err
			}
			sink += uint64(len(buf))
		}
		return int64(d.n)
	})
	return per, calls, routeErr
}

// warmCache fills a ToR cache the way the request path does: a lookup per
// key, and an admission offer for every miss.
func (d *drivers) warmCache() (*cache.Cache, error) {
	c, err := cache.New(d.cacheConfig())
	if err != nil {
		return nil, err
	}
	for pass := 0; pass < 3; pass++ {
		for _, k := range d.keys {
			if !c.Lookup(k) {
				c.Admit(k)
			}
		}
	}
	return c, nil
}

func (d *drivers) cacheOp(op func(c *cache.Cache, key uint64) bool) (float64, int64, error) {
	c, err := d.warmCache()
	if err != nil {
		return 0, 0, err
	}
	per, calls := medianPer(func() int64 {
		for i := 0; i < d.n; i++ {
			if op(c, d.key(i)) {
				sink++
			}
		}
		return int64(d.n)
	})
	return per, calls, nil
}

func (d *drivers) cacheLookup() (float64, int64, error) {
	return d.cacheOp((*cache.Cache).Lookup)
}

func (d *drivers) cacheAdmit() (float64, int64, error) {
	return d.cacheOp((*cache.Cache).Admit)
}

func (d *drivers) cacheInvalidate() (float64, int64, error) {
	return d.cacheOp((*cache.Cache).Invalidate)
}

// placementSolve: BuildProblem plus Solve on the rack-level traffic groups
// of the workload's deployment, each carrying its clients' share of the
// offered load split across tiers by where the servers sit. Reported in
// milliseconds per solve.
func (d *drivers) placementSolve() (float64, int64, error) {
	ft := d.st.ft
	byRack := make(map[int][]topo.NodeID)
	for _, h := range d.st.dep.ClientHosts {
		node, err := ft.Node(h)
		if err != nil {
			return 0, 0, err
		}
		byRack[node.Rack] = append(byRack[node.Rack], h)
	}
	perClient := d.st.rate / float64(d.cfg.Clients)
	var groups []placement.Group
	for rack := 0; rack < ft.Racks(); rack++ {
		hosts := byRack[rack]
		if len(hosts) == 0 {
			continue
		}
		g := placement.Group{ID: len(groups), Rack: rack, Hosts: hosts}
		share := perClient * float64(len(hosts)) / float64(len(d.st.dep.ServerHosts))
		for _, srv := range d.st.dep.ServerHosts {
			tier, err := ft.TrafficTier(hosts[0], srv)
			if err != nil {
				return 0, 0, err
			}
			g.TierTraffic[tier] += share
		}
		groups = append(groups, g)
	}
	accel := placement.AccelParams{
		Cores:          d.cfg.Fabric.AccelCores,
		SelectionTime:  d.cfg.Fabric.AccelService,
		MaxUtilization: d.cfg.AccelMaxUtilization,
	}
	budget := d.cfg.ExtraHopBudgetFraction * d.st.rate
	var solveErr error
	per, solves := medianPer(func() int64 {
		p, err := placement.BuildProblem(ft, groups, accel, budget)
		if err == nil {
			var plan placement.Plan
			plan, err = placement.Solve(p, placement.Options{Method: d.cfg.PlacementMethod, AllowDRS: true})
			sink += uint64(len(plan.RSNodes))
		}
		if err != nil {
			solveErr = fmt.Errorf("placement: %w", err)
		}
		return 1
	})
	return per / 1e6, solves, solveErr
}

// statsRecord: Recorder.Record for every measured latency, then Summarize,
// per recorded sample.
func (d *drivers) statsRecord() (float64, int64, error) {
	lat := make([]sim.Time, 4096)
	for i := range lat {
		lat[i] = sim.Time(d.rng.ExpFloat64()*float64(d.cfg.MeanServiceTime)) + 1
	}
	var sumErr error
	per, calls := medianPer(func() int64 {
		rec := stats.NewRecorder(d.n)
		for i := 0; i < d.n; i++ {
			rec.Record(lat[i&4095])
		}
		s, err := rec.Summarize()
		if err != nil {
			sumErr = err
		}
		sink += uint64(s.Count)
		return int64(d.n)
	})
	return per, calls, sumErr
}
