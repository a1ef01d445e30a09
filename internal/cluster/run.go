package cluster

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"time"

	"netrs/internal/c3"
	"netrs/internal/cache"
	"netrs/internal/fabric"
	"netrs/internal/faults"
	"netrs/internal/kv"
	"netrs/internal/placement"
	"netrs/internal/selection"
	"netrs/internal/sim"
	"netrs/internal/stats"
	"netrs/internal/topo"
	"netrs/internal/wire"
	"netrs/internal/workload"
)

// Result reports one experiment run.
type Result struct {
	// Scheme is the scheme under test.
	Scheme Scheme `json:"scheme"`
	// Summary holds the latency statistics of the measured (post-warmup)
	// requests.
	Summary stats.Summary `json:"summary"`
	// Emitted and Completed count logical requests (warmup included).
	Emitted   int `json:"emitted"`
	Completed int `json:"completed"`
	// RSNodes is the number of replica-selection nodes: the client count
	// for CliRS variants, the deployed plan's RSNode count for NetRS.
	RSNodes int `json:"rsnodes"`
	// DegradedGroups counts traffic groups running under DRS.
	DegradedGroups int `json:"degradedGroups"`
	// RedundantSent counts CliRS-R95 duplicate requests.
	RedundantSent uint64 `json:"redundantSent"`
	// CancelledDuplicates counts duplicates withdrawn at their server
	// before service (Config.CancelDuplicates).
	CancelledDuplicates uint64 `json:"cancelledDuplicates"`
	// DegradedResponses counts responses served via the DRS path.
	DegradedResponses uint64 `json:"degradedResponses"`
	// PlanMethod names the placement solver used (NetRS-ILP only).
	PlanMethod placement.Method `json:"planMethod,omitempty"`
	// OperatorSelections counts replica selections performed in-network,
	// summed over all operators.
	OperatorSelections uint64 `json:"operatorSelections"`
	// FailedRSNode records the RSNode ID failed by injection (0 = none).
	FailedRSNode uint16 `json:"failedRSNode,omitempty"`
	// SimulatedSpanNs is the simulated duration of the run in
	// nanoseconds.
	SimulatedSpan sim.Time `json:"simulatedSpanNs"`
	// MaxAccelUtilization is the busiest accelerator's utilization.
	MaxAccelUtilization float64 `json:"maxAccelUtilization"`
	// ServerLoadCV is the coefficient of variation of per-server served
	// counts — a load-imbalance measure (herd behavior concentrates load
	// and raises it).
	ServerLoadCV float64 `json:"serverLoadCV"`
	// QueueCVMean is the time-averaged coefficient of variation of
	// instantaneous server queue lengths, sampled every fluctuation
	// interval. It quantifies the load oscillations §I attributes to
	// "herd behavior": simultaneous selections concentrate queueing on
	// momentarily attractive servers, raising the cross-server spread.
	QueueCVMean float64 `json:"queueCVMean"`
	// TraceMs holds per-request latencies in completion order when
	// Config.KeepLatencyTrace is set.
	TraceMs []float64 `json:"traceMs,omitempty"`
	// Timeline is the time-bucketed latency/DRS-share series of the
	// measured requests, present when Config.TimelineBucket is positive.
	Timeline []stats.TimelineBucket `json:"timeline,omitempty"`
	// Errors records, in occurrence order, deterministic mid-run control
	// errors the run survived: fault events that could not apply and RSP
	// solves that fell back to the standing plan. Empty on a clean run.
	Errors []string `json:"errors,omitempty"`
	// Epochs is the per-epoch plan history when Config.ControllerInterval
	// is positive: one record per periodic controller re-solve.
	Epochs []EpochRecord `json:"epochs,omitempty"`
	// Cache counters, summed over every ToR cache (cache schemes only).
	// CacheHits answered in the switch; CacheMisses consulted the cache
	// and went on to a replica; CacheInvalidations are keys dropped by
	// write coherence messages.
	CacheHits          uint64 `json:"cacheHits,omitempty"`
	CacheMisses        uint64 `json:"cacheMisses,omitempty"`
	CacheAdmissions    uint64 `json:"cacheAdmissions,omitempty"`
	CacheEvictions     uint64 `json:"cacheEvictions,omitempty"`
	CacheInvalidations uint64 `json:"cacheInvalidations,omitempty"`
}

// CacheHitRate is the fraction of cache-consulted requests answered in
// the network, 0 when the run never consulted a cache.
func (r Result) CacheHitRate() float64 {
	total := r.CacheHits + r.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(total)
}

// EpochRecord summarizes one controller epoch — one firing of the periodic
// RSP re-solve loop enabled by Config.ControllerInterval.
type EpochRecord struct {
	// AtMs is the epoch's instant on the simulated clock.
	AtMs float64 `json:"atMs"`
	// RSNodes and DegradedGroups describe the plan in force after the
	// epoch; MovedGroups counts the groups the epoch re-steered.
	RSNodes        int `json:"rsnodes"`
	MovedGroups    int `json:"movedGroups"`
	DegradedGroups int `json:"degradedGroups"`
	// Kept is true when the epoch deployed nothing — the window was empty
	// or the solve failed (recorded in Result.Errors) — and the previous
	// plan stayed in force.
	Kept bool `json:"kept,omitempty"`
	// SolveWallMs is the wall-clock time the placement solve took. It is
	// diagnostic only: wall time is nondeterministic, so it is excluded
	// from golden digests and reproducible reports.
	SolveWallMs float64 `json:"solveWallMs,omitempty"`
}

// client is one end-host issuing requests. Under CliRS it is a full
// RSNode; under NetRS it only ranks replicas to provide the DRS backup.
type client struct {
	host topo.NodeID
	sel  selection.Selector
	p95  *stats.P2Quantile
	// st is the host's partition: every event touching the client's
	// requests runs on st.eng and keeps its records in st.
	st *shardState
}

// pending tracks one logical request until its first response.
type pending struct {
	logicalIdx int
	client     *client
	rgid       int
	replicas   []int
	key        uint64
	write      bool
	created    sim.Time
	done       bool
	primary    int
	timer      sim.EventRef
	// packetIDs lists the in-flight packets (primary plus duplicates) so
	// cancellation can reach the losers.
	packetIDs []uint64
	// refs counts live packetCtx records pointing at this pending; the
	// record returns to its partition's pool once it is done and the last
	// context dies.
	refs int
}

// packetCtx ties an in-flight packet (primary or duplicate) to its logical
// request.
type packetCtx struct {
	p      *pending
	pid    uint64
	server int
	sentAt sim.Time
}

// runner holds one experiment's live state. Request state lives in the
// per-partition shardState records; the fields here are run-level.
type runner struct {
	cfg Config
	ft  *topo.Topology
	net *fabric.Network
	ctl *fabric.Controller
	// set is the shard coordinator, nil when the run has one partition.
	set   *sim.ShardSet
	parts []*shardState

	ring         *kv.Ring
	servers      []*kv.Server
	serverHostOf []topo.NodeID

	clients []*client
	// startFeed starts the arrival feed built by setup.
	startFeed func() error

	total, warmup int
	// deployAt and stopAt are the completion counts at which the ILP plan
	// deploys (0: never) and the run stops.
	deployAt, stopAt int
	// resetAt is the first completion's instant, where the monitors reset
	// on one partition; a pilot reports it.
	resetAt sim.Time
	rate    float64 // offered load (req/s), synthetic or trace-derived

	plan    placement.Plan
	hasPlan bool

	// invalidationToRs lists the ToR switches holding an enabled cache,
	// in topology order — the write-coherence fan-out targets. Empty
	// unless a cache scheme runs with a positive budget.
	invalidationToRs []topo.NodeID

	// State of the features validate keeps on one partition; each is
	// touched only when configured.
	nextPID      uint64               // CliRS-R95 packet counter
	tickets      map[uint64]kv.Ticket // CliRS-R95 CancelDuplicates
	redundant    uint64
	cancelled    uint64
	injector     *faults.Injector
	timeline     *stats.Timeline
	failedRSNode uint16
	trace        []float64

	errs    []string
	epochs  []EpochRecord
	queueCV stats.Welford // samples of cross-server queue-length CV

	// launchPickFn and redundantFn are the shared handlers for
	// rate-control-delayed CliRS sends and CliRS-R95 duplicate timers
	// (closure-free scheduling; the packetCtx or pending is the argument).
	launchPickFn sim.ArgHandler
	redundantFn  sim.ArgHandler

	netrs bool
}

// Run executes one experiment and returns its results.
//
// Run is safe for concurrent use: every call builds its own engine, RNG
// streams (all derived from cfg.Seed), topology, servers, selectors, and
// recorder, and the packages it draws on keep no package-level mutable
// state (their only globals are immutable sentinel errors). Concurrent
// runs therefore produce exactly the results sequential runs would —
// the property the parallel sweep executor depends on.
func Run(cfg Config) (Result, error) {
	r, err := newRunner(cfg, nil, nil)
	if err != nil {
		return Result{}, err
	}
	if err := r.run(); err != nil {
		return Result{}, err
	}
	return r.result()
}

// newRunner validates cfg and builds the experiment, ready to run. The
// topology and ring are built from cfg unless given: both are read-only
// after construction and deterministic in cfg, so a pilot shares its
// run's.
func newRunner(cfg Config, ft *topo.Topology, ring *kv.Ring) (*runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &runner{
		cfg:   cfg,
		ft:    ft,
		ring:  ring,
		netrs: cfg.Scheme == SchemeNetRSToR || cfg.Scheme == SchemeNetRSILP || cfg.Scheme == SchemeNetRSCache,
	}
	r.launchPickFn = func(arg any) { r.launchPick(arg.(*packetCtx)) }
	r.redundantFn = func(arg any) { r.fireRedundant(arg.(*pending)) }
	if err := r.setup(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *runner) setup() error {
	cfg := r.cfg
	root := sim.NewRNG(cfg.Seed)

	var err error
	if r.ft == nil {
		if r.ft, err = topo.NewFatTree(cfg.FatTreeK); err != nil {
			return err
		}
	}
	if r.ring == nil {
		if r.ring, err = kv.NewRing(cfg.Servers, cfg.Replication, cfg.VNodes, cfg.Seed); err != nil {
			return err
		}
	}
	if r.ring.Groups() >= 1<<24 {
		return fmt.Errorf("%d replica groups exceed the 24-bit RGID space: %w", r.ring.Groups(), ErrInvalidParam)
	}

	// Workload rate, needed both for the source and to size the C3 rate
	// limiters at their steady-state operating point. A replayed trace
	// supplies its own empirical rate.
	traceEntries, err := readReplayTrace(cfg)
	if err != nil {
		return err
	}
	rate, err := workload.UtilizationRate(cfg.Utilization, cfg.Servers, cfg.Parallelism, cfg.MeanServiceTime)
	if err != nil {
		return err
	}
	if len(traceEntries) > 0 {
		span := traceEntries[len(traceEntries)-1].At
		if span > 0 {
			rate = float64(len(traceEntries)) / (float64(span) / float64(sim.Second))
		}
	}
	r.rate = rate

	// The in-network layer, on one engine or on one engine per pod
	// partition (plus the control partition). CliRS runs over the same
	// fabric with inert operators (its packets are non-NetRS and are
	// simply forwarded).
	factory := r.operatorSelectorFactory(root, rate)
	var engines []*sim.Engine
	if shards := cfg.EffectiveShards(); shards > 1 {
		if r.set, err = sim.NewShardSet(r.ft.PodPartitions(), shards, cfg.Fabric.LinkLatency); err != nil {
			return err
		}
		for p := 0; p < r.set.Partitions(); p++ {
			engines = append(engines, r.set.Engine(p))
		}
		r.net, err = fabric.NewShardedNetwork(r.set, r.ft, cfg.Fabric, factory)
	} else {
		eng := sim.NewEngine()
		engines = []*sim.Engine{eng}
		r.net, err = fabric.NewNetwork(eng, r.ft, cfg.Fabric, func(id uint16) (fabric.Selector, error) { return factory(id, eng) })
	}
	if err != nil {
		return err
	}
	for p, eng := range engines {
		r.parts = append(r.parts, &shardState{part: p, eng: eng, pendings: make(map[uint64]*packetCtx)})
	}

	deployment, err := workload.Deploy(r.ft, cfg.Servers, cfg.Clients, root.Stream(1))
	if err != nil {
		return err
	}
	r.serverHostOf = deployment.ServerHosts

	// Replica servers, each on its host's partition engine.
	serverCfg := kv.ServerConfig{
		Parallelism:         cfg.Parallelism,
		MeanServiceTime:     cfg.MeanServiceTime,
		FluctuationInterval: cfg.FluctuationInterval,
		FluctuationRange:    cfg.FluctuationRange,
	}
	for i, host := range r.serverHostOf {
		srv, err := kv.NewServer(i, r.net.EngineOf(host), serverCfg, root.Stream(uint64(10+i)))
		if err != nil {
			return err
		}
		r.servers = append(r.servers, srv)
	}

	// Scenario statics (heterogeneous server classes, persistently slow
	// racks) install before the clock starts: no RNG, no events.
	if err := applyScenarioStatics(cfg.Scenario, r.servers, r.ft, r.net); err != nil {
		return err
	}

	// Host handlers.
	for sid, host := range r.serverHostOf {
		if err := r.net.AttachHost(host, r.serverHandler(sid)); err != nil {
			return err
		}
	}
	for _, host := range deployment.ClientHosts {
		c := &client{host: host, st: r.parts[r.net.PartitionOf(host)]}
		if c.sel, err = r.clientSelector(c.st.eng); err != nil {
			return err
		}
		if cfg.Scheme == SchemeCliRSR95 {
			if c.p95, err = stats.NewP2Quantile(cfg.RedundantPercentile); err != nil {
				return err
			}
		}
		r.clients = append(r.clients, c)
		if err := r.net.AttachHost(host, r.clientHandler(c)); err != nil {
			return err
		}
	}

	if len(traceEntries) > 0 {
		r.total = len(traceEntries)
		r.warmup = int(cfg.WarmupFraction * float64(r.total))
	} else {
		r.warmup = int(cfg.WarmupFraction * float64(cfg.Requests))
		r.total = cfg.Requests + r.warmup
	}
	r.stopAt = r.total
	if cfg.Scheme == SchemeNetRSILP {
		// The ILP plan deploys halfway through warmup: the paper notes a
		// temporary latency increase after an RSP deployment while new
		// RSNodes rebuild their view, so the second half of the warmup
		// absorbs that transient before measurement starts.
		r.deployAt = (r.warmup + 1) / 2
	}
	if err := r.setupFeed(traceEntries, rate, root.Stream(3)); err != nil {
		return err
	}
	// One recorder per partition; the merged multiset is the one-engine
	// recorder's (count, integer-sum mean, and sorted percentiles are
	// order-independent).
	hint := (r.total-r.warmup)/len(r.parts) + 1
	for _, st := range r.parts {
		if cfg.StatsSampleCap > 0 {
			st.rec = stats.NewBoundedRecorder(hint, cfg.StatsSampleCap)
		} else {
			st.rec = stats.NewRecorder(hint)
		}
	}
	if cfg.TimelineBucket > 0 {
		if r.timeline, err = stats.NewTimeline(cfg.TimelineBucket); err != nil {
			return err
		}
	}
	if cfg.CancelDuplicates && cfg.Scheme == SchemeCliRSR95 {
		r.tickets = make(map[uint64]kv.Ticket)
	}
	// The fault schedule: the legacy FailRSNodeAt fraction becomes a
	// synthesized one-event schedule prepended to any declared events, so
	// it fires at the identical completion count the bespoke injection
	// path used.
	events := cfg.Faults
	if len(cfg.Scenario.Faults) > 0 {
		// Copy before appending: cfg.Faults may alias a caller's slice.
		events = append(append([]faults.Event(nil), events...), cfg.Scenario.Faults...)
	}
	if cfg.FailRSNodeAt > 0 {
		legacy := faults.Event{Kind: faults.KindRSNodeCrash, AtFraction: cfg.FailRSNodeAt, RSNode: faults.TargetBusiest}
		events = append([]faults.Event{legacy}, events...)
	}
	if len(events) > 0 {
		if r.injector, err = faults.NewInjector(r.net.Engine(), r, r.total, events, r.recordError); err != nil {
			return err
		}
	}

	// The NetRS control plane.
	if r.netrs {
		if err := r.setupControlPlane(deployment.ClientHosts, rate); err != nil {
			return err
		}
	}

	// The cache tier. NetCache resolves misses through the group database
	// directly (no selection control plane); both cache schemes attach one
	// cache per ToR operator.
	if cfg.Scheme == SchemeNetCache {
		installOperatorDBs(r.net, r.ring, r.serverHostOf)
	}
	if cfg.IsCacheScheme() {
		tors, err := enableCaches(cfg, r.net)
		if err != nil {
			return err
		}
		r.invalidationToRs = tors
	}
	return nil
}

// readReplayTrace loads the configured replay trace, if any, and checks
// its client references.
func readReplayTrace(cfg Config) ([]workload.TraceEntry, error) {
	path := cfg.ReplayTracePath
	if path == "" {
		path = cfg.Scenario.ReplayTracePath
	}
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open trace: %w", err)
	}
	entries, err := workload.ReadTrace(f)
	closeErr := f.Close()
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}
	for i, e := range entries {
		if e.Client >= cfg.Clients {
			return nil, fmt.Errorf("trace entry %d references client %d of %d: %w",
				i, e.Client, cfg.Clients, ErrInvalidParam)
		}
	}
	return entries, nil
}

// setupFeed builds the arrival feed, every arrival landing in onArrival.
// One partition keeps the live source (or trace replay), which emits as
// the clock runs; shards pre-generate the synthetic sequence and schedule
// each arrival into its client's partition.
func (r *runner) setupFeed(traceEntries []workload.TraceEntry, rate float64, rng *sim.RNG) error {
	if len(traceEntries) > 0 {
		replay, err := workload.NewTraceSource(traceEntries, r.net.Engine(), r.onArrival)
		if err != nil {
			return err
		}
		r.startFeed = replay.Start
		return nil
	}
	cfg := r.cfg
	srcCfg := workload.SourceConfig{
		Generators:    cfg.Generators,
		RatePerSec:    rate,
		Clients:       cfg.Clients,
		DemandSkew:    cfg.DemandSkew,
		HotFraction:   cfg.HotClientFraction,
		Keys:          cfg.Keys,
		ZipfTheta:     cfg.ZipfTheta,
		Total:         r.total,
		ShiftAt:       cfg.DemandShiftAt,
		ShiftFraction: cfg.DemandShiftFraction,
		WriteFraction: cfg.WriteFraction,
		// The scenario's workload shaping lives inside the source, so the
		// pre-generation pass replays it bit-exactly at any shard count.
		Modulation: cfg.Scenario.RateModulation(),
		Spike:      cfg.Scenario.KeySpike(),
	}
	if r.set != nil {
		arrivals, err := pregenerate(srcCfg, rng)
		if err != nil {
			return err
		}
		r.startFeed = func() error { return r.scheduleArrivals(arrivals) }
		return nil
	}
	src, err := workload.NewSource(srcCfg, r.net.Engine(), rng, r.onArrival)
	if err != nil {
		return err
	}
	r.startFeed = func() error {
		src.Start()
		return nil
	}
	return nil
}

// installOperatorDBs installs the ring-backed replica-group database and
// server locator directly on every operator — the NetCache resolution
// path, which needs no controller.
func installOperatorDBs(net *fabric.Network, ring *kv.Ring, serverHostOf []topo.NodeID) {
	db := func(rgid uint32) ([]int, error) { return ring.Replicas(int(rgid)) }
	loc := func(server int) (topo.NodeID, error) {
		if server < 0 || server >= len(serverHostOf) {
			return topo.InvalidNode, fmt.Errorf("server %d: %w", server, ErrInvalidParam)
		}
		return serverHostOf[server], nil
	}
	for _, op := range net.OperatorsSorted() {
		op.SetDatabases(db, loc)
	}
}

// enableCaches attaches one hot-key cache to every ToR operator in the
// scheme's mode and returns the invalidation fan-out targets in topology
// order. A zero budget still attaches (inert) caches — NetCache needs the
// pipeline either way — but yields no fan-out targets, so disabled runs
// carry no coherence traffic.
func enableCaches(cfg Config, net *fabric.Network) ([]topo.NodeID, error) {
	mode := fabric.CacheModeStandalone
	if cfg.Scheme == SchemeNetRSCache {
		mode = fabric.CacheModeSelector
	}
	var tors []topo.NodeID
	for _, op := range net.OperatorsSorted() {
		if op.Tier() != topo.TierToR {
			continue
		}
		c, err := cache.New(cache.Config{
			Budget:     cfg.CacheBytes,
			AdmitAfter: cfg.CacheAdmitAfter,
			MinItem:    cfg.CacheItemMinBytes,
			MaxItem:    cfg.CacheItemMaxBytes,
		})
		if err != nil {
			return nil, err
		}
		if err := op.EnableCache(c, mode); err != nil {
			return nil, err
		}
		if cfg.CacheBytes > 0 {
			tors = append(tors, op.Switch())
		}
	}
	return tors, nil
}

// operatorSelectorFactory builds the per-operator replica-selection state
// on the engine of the operator's partition. aggregateRate (req/s) sizes
// C3's initial rate limit at the steady-state per-server demand: the
// evaluation measures steady state, and with scaled-down request counts a
// cold slow-start could otherwise occupy the whole measured window at
// small service times.
func (r *runner) operatorSelectorFactory(root *sim.RNG, aggregateRate float64) func(uint16, *sim.Engine) (fabric.Selector, error) {
	if !r.netrs {
		// CliRS traffic never consults operator selectors.
		return func(uint16, *sim.Engine) (fabric.Selector, error) { return &selection.RoundRobin{}, nil }
	}
	if alg := r.cfg.OperatorAlgorithm; alg != "" && alg != selection.AlgoC3 {
		return func(id uint16, eng *sim.Engine) (fabric.Selector, error) {
			return selection.New(alg, eng, root.Stream(uint64(500000)+uint64(id)))
		}
	}
	return func(_ uint16, eng *sim.Engine) (fabric.Selector, error) {
		cfg := c3.NewDefaultConfig()
		cfg.RateControl = r.cfg.RateControl
		perServerPerInterval := aggregateRate *
			(float64(cfg.RateInterval) / float64(sim.Second)) / float64(r.cfg.Servers)
		if perServerPerInterval > cfg.InitialRate {
			cfg.InitialRate = perServerPerInterval
		}
		if cfg.MaxRate < 8*perServerPerInterval {
			cfg.MaxRate = 8 * perServerPerInterval
		}
		return selection.NewC3(cfg, eng)
	}
}

// clientSelector builds a client's local selection state on its
// partition's engine: the full C3 RSNode under CliRS, a feedback-fed
// ranker for DRS backups under NetRS.
func (r *runner) clientSelector(eng *sim.Engine) (selection.Selector, error) {
	cfg := c3.NewDefaultConfig()
	cfg.ConcurrencyWeight = float64(r.cfg.Clients)
	cfg.RateControl = r.cfg.RateControl && !r.netrs
	return selection.NewC3(cfg, eng)
}

// setupControlPlane defines traffic groups, installs databases and the
// initial (ToR) plan, and sizes the C3 concurrency weights.
func (r *runner) setupControlPlane(clientHosts []topo.NodeID, rate float64) error {
	groups, err := buildGroupDefs(r.cfg, r.ft, clientHosts)
	if err != nil {
		return err
	}
	accel := placement.AccelParams{
		Cores:          r.cfg.Fabric.AccelCores,
		SelectionTime:  r.cfg.Fabric.AccelService,
		MaxUtilization: r.cfg.AccelMaxUtilization,
	}
	budget := r.cfg.ExtraHopBudgetFraction * rate
	r.ctl, err = fabric.NewController(r.net, groups, accel, budget, placement.Options{
		Method:   r.cfg.PlacementMethod,
		AllowDRS: true,
	})
	if err != nil {
		return err
	}
	r.ctl.InstallGroupDBs(
		func(rgid uint32) ([]int, error) { return r.ring.Replicas(int(rgid)) },
		func(server int) (topo.NodeID, error) {
			if server < 0 || server >= len(r.serverHostOf) {
				return topo.InvalidNode, fmt.Errorf("server %d: %w", server, ErrInvalidParam)
			}
			return r.serverHostOf[server], nil
		},
	)
	if err := r.ctl.InstallToRPlan(); err != nil {
		return err
	}
	plan, _ := r.ctl.CurrentPlan()
	r.plan = plan
	r.hasPlan = true
	setOperatorWeights(r.net, len(plan.RSNodes))
	return nil
}

// buildGroupDefs derives traffic groups from the client deployment.
func buildGroupDefs(cfg Config, ft *topo.Topology, clientHosts []topo.NodeID) ([]fabric.GroupDef, error) {
	if !cfg.RackLevelGroups {
		groups := make([]fabric.GroupDef, len(clientHosts))
		for i, h := range clientHosts {
			node, err := ft.Node(h)
			if err != nil {
				return nil, err
			}
			groups[i] = fabric.GroupDef{ID: i, Rack: node.Rack, Hosts: []topo.NodeID{h}}
		}
		return groups, nil
	}
	byRack := make(map[int][]topo.NodeID)
	for _, h := range clientHosts {
		node, err := ft.Node(h)
		if err != nil {
			return nil, err
		}
		byRack[node.Rack] = append(byRack[node.Rack], h)
	}
	groups := make([]fabric.GroupDef, 0, len(byRack))
	for rack := 0; rack < ft.Racks(); rack++ {
		hosts, ok := byRack[rack]
		if !ok {
			continue
		}
		// Intervening-level granularity: chunk a rack's clients into
		// groups of at most GroupMaxHosts (§III-A).
		chunk := len(hosts)
		if cfg.GroupMaxHosts > 0 && cfg.GroupMaxHosts < chunk {
			chunk = cfg.GroupMaxHosts
		}
		for start := 0; start < len(hosts); start += chunk {
			end := start + chunk
			if end > len(hosts) {
				end = len(hosts)
			}
			groups = append(groups, fabric.GroupDef{ID: len(groups), Rack: rack, Hosts: hosts[start:end]})
		}
	}
	return groups, nil
}

// setOperatorWeights retunes every operator selector's C3 concurrency
// weight to the number of active RSNodes.
func setOperatorWeights(net *fabric.Network, rsnodes int) {
	if rsnodes < 1 {
		rsnodes = 1
	}
	for _, op := range net.OperatorsSorted() {
		if ad, ok := op.Accelerator().Selector().(*selection.Adapter); ok {
			// The weight is nonnegative by construction.
			_ = ad.Inner().SetConcurrencyWeight(float64(rsnodes))
		}
	}
}

// run starts the servers, the periodic actions and the workload, then
// drives the clock to the stop count.
func (r *runner) run() error {
	if r.set != nil && r.deployAt >= 1 {
		if err := r.replayCountTriggers(); err != nil {
			return err
		}
	}
	for _, srv := range r.servers {
		srv.Start()
	}
	r.startQueueSampler()
	if r.injector != nil {
		if err := r.injector.Start(); err != nil {
			return err
		}
	}
	if err := r.startFeed(); err != nil {
		return err
	}

	// Generous watchdog: tens of times the expected span. One engine stops
	// itself at the stop count (finish); shards stop at the first barrier
	// where the partitions' counts reach it.
	expected := float64(r.total) / r.rate
	deadline := sim.FromSeconds(expected*20 + 30)
	if r.set == nil {
		r.net.Engine().RunUntil(deadline)
	} else if err := r.set.Run(deadline, func(sim.Time) bool { return r.done() }); err != nil && !errors.Is(err, sim.ErrDeadline) {
		return err
	}
	if n := r.completed(); n < r.stopAt {
		return fmt.Errorf("cluster: %d of %d requests completed by watchdog deadline %v", n, r.stopAt, deadline)
	}
	return nil
}

// completed sums the partition completion counters. On shards it is only
// read at barriers (globals and the afterWindow hook), where every worker
// has joined.
func (r *runner) completed() int {
	n := 0
	for _, st := range r.parts {
		n += st.completed
	}
	return n
}

// done reports whether the run has reached its stop count.
func (r *runner) done() bool { return r.completed() >= r.stopAt }

// result summarizes a finished run.
func (r *runner) result() (Result, error) {
	// The logical end of the run is the last completion instant. Shard
	// clocks may overrun it by up to one window, but only on invisible
	// timers (server fluctuation redraws): at the last completion no
	// request is in flight.
	res := Result{
		Scheme:              r.cfg.Scheme,
		RedundantSent:       r.redundant,
		CancelledDuplicates: r.cancelled,
		FailedRSNode:        r.failedRSNode,
		TraceMs:             r.trace,
		Errors:              r.errs,
		Epochs:              r.epochs,
		QueueCVMean:         r.queueCV.Mean(),
	}
	rec := r.parts[0].rec
	for _, st := range r.parts {
		if st != r.parts[0] {
			if err := rec.Merge(st.rec); err != nil {
				return Result{}, err
			}
		}
		res.Emitted += st.arrived
		res.Completed += st.completed
		res.DegradedResponses += st.degraded
		res.SimulatedSpan = max(res.SimulatedSpan, st.lastDone)
	}
	summary, err := rec.Summarize()
	if err != nil {
		return Result{}, fmt.Errorf("summarize: %w", err)
	}
	res.Summary = summary
	if r.netrs && r.hasPlan {
		res.RSNodes = len(r.plan.RSNodes)
		res.DegradedGroups = len(r.plan.Degraded)
		res.PlanMethod = r.plan.Method
	} else if r.cfg.Scheme == SchemeNetCache {
		for _, op := range r.net.OperatorsSorted() {
			if op.Cache() != nil {
				res.RSNodes++
			}
		}
	} else {
		res.RSNodes = r.cfg.Clients
	}
	if r.timeline != nil {
		res.Timeline = r.timeline.Buckets()
	}
	var loads stats.Welford
	for _, srv := range r.servers {
		loads.Observe(float64(srv.Served()))
	}
	res.ServerLoadCV = loads.CV()
	for _, op := range r.net.OperatorsSorted() {
		if u := op.Accelerator().UtilizationAt(res.SimulatedSpan); u > res.MaxAccelUtilization {
			res.MaxAccelUtilization = u
		}
		res.OperatorSelections += op.Stats().Selections
		collectCacheStats(op, &res)
	}
	return res, nil
}

// collectCacheStats folds one operator's cache counters into the result.
func collectCacheStats(op *fabric.Operator, res *Result) {
	cc := op.Cache()
	if cc == nil {
		return
	}
	s := cc.Stats()
	res.CacheHits += s.Hits
	res.CacheMisses += s.Misses
	res.CacheAdmissions += s.Admissions
	res.CacheEvictions += s.Evictions
	res.CacheInvalidations += s.Invalidations
}

// onArrival is the workload sink: one logical request, executing in the
// issuing client's partition.
func (r *runner) onArrival(req workload.Request) {
	c := r.clients[req.Client]
	st := c.st
	st.arrived++
	rgid := r.ring.GroupOfKey(req.Key)
	replicas, err := r.ring.Replicas(rgid)
	if err != nil {
		return
	}
	p := st.newPending(pending{
		logicalIdx: req.Index,
		client:     c,
		rgid:       rgid,
		replicas:   replicas,
		key:        req.Key,
		write:      req.Write,
		created:    st.eng.Now(),
		primary:    -1,
	})
	if r.netrs || r.cfg.Scheme == SchemeNetCache {
		r.sendNetRS(p)
		return
	}
	r.sendClientPick(p, replicas)
}

// track registers a new in-flight packet of p in its client's partition
// and returns the packet's context.
//
// Packet IDs feed the fabric's ECMP flow hash, so their numbering is
// pinned: IDs count packets in send order. Each arrival sends exactly one
// packet, in index order, so without duplicates the count is the arrival
// index plus one, which partitions derive without a shared counter.
// CliRS-R95's duplicates interleave with the primaries; that scheme keeps
// a counter, and validate keeps it on one partition.
func (r *runner) track(p *pending, server int, sentAt sim.Time) *packetCtx {
	pid := uint64(p.logicalIdx) + 1
	if r.cfg.Scheme == SchemeCliRSR95 {
		r.nextPID++
		pid = r.nextPID
	}
	st := p.client.st
	ctx := st.newCtx(packetCtx{p: p, pid: pid, server: server, sentAt: sentAt})
	st.pendings[pid] = ctx
	p.refs++
	p.packetIDs = append(p.packetIDs, pid)
	return ctx
}

// sendClientPick realizes the CliRS flow: the client's own C3 instance
// picks the replica (possibly delaying the send under rate control) and
// the request travels directly to the chosen server. The first send is
// the primary; later ones are CliRS-R95 duplicates.
func (r *runner) sendClientPick(p *pending, candidates []int) {
	c := p.client
	server, delay, err := c.sel.Pick(candidates)
	if err != nil {
		return
	}
	ctx := r.track(p, server, 0)
	if delay > 0 {
		c.st.eng.MustScheduleArg(delay, r.launchPickFn, ctx)
	} else {
		r.launchPick(ctx)
	}
	if p.primary < 0 {
		p.primary = server
		if r.cfg.Scheme == SchemeCliRSR95 {
			r.armRedundantTimer(p)
		}
	}
}

// launchPick puts a CliRS request on the wire once any rate-control delay
// has elapsed.
func (r *runner) launchPick(ctx *packetCtx) {
	p := ctx.p
	st := p.client.st
	if p.done {
		st.retire(ctx)
		return
	}
	ctx.sentAt = st.eng.Now()
	pkt := r.net.NewPacketIn(st.part)
	pkt.ReqID = ctx.pid
	pkt.Dst = r.serverHostOf[ctx.server]
	pkt.Server = ctx.server
	pkt.RGID = uint32(p.rgid)
	pkt.CreatedAt = p.created
	if err := r.net.SendDirect(pkt, p.client.host); err != nil {
		st.retire(ctx)
	}
}

// armRedundantTimer schedules the CliRS-R95 duplicate once the request has
// been outstanding longer than the client's latency-percentile estimate.
func (r *runner) armRedundantTimer(p *pending) {
	c := p.client
	if c.p95 == nil || c.p95.Observations() < 20 {
		return // no trustworthy estimate yet
	}
	threshold := sim.Time(c.p95.Value())
	if threshold <= 0 {
		return
	}
	p.timer = c.st.eng.MustScheduleArg(threshold, r.redundantFn, p)
}

// fireRedundant is the CliRS-R95 duplicate-timer handler: when the
// primary has not answered by the p95 threshold, re-issue the request to
// the remaining replicas.
func (r *runner) fireRedundant(p *pending) {
	if p.done {
		return
	}
	filtered := make([]int, 0, len(p.replicas))
	for _, s := range p.replicas {
		if s != p.primary {
			filtered = append(filtered, s)
		}
	}
	if len(filtered) == 0 {
		return
	}
	r.redundant++
	if r.timeline != nil {
		r.timeline.RecordTimeout(p.client.st.eng.Now())
	}
	r.sendClientPick(p, filtered)
}

// sendNetRS realizes the NetRS flow: the request heads for the network
// with its replica group ID and a client-provided DRS backup; the
// in-network RSNode picks the replica.
func (r *runner) sendNetRS(p *pending) {
	c := p.client
	ranked := c.sel.Rank(p.replicas)
	backup := ranked[0]
	ctx := r.track(p, -1, c.st.eng.Now())
	pkt := r.net.NewPacketIn(c.st.part)
	pkt.ReqID = ctx.pid
	pkt.RGID = uint32(p.rgid)
	pkt.Dst = topo.InvalidNode
	pkt.Backup = r.serverHostOf[backup]
	pkt.BackupServer = backup
	pkt.Key = p.key
	pkt.Write = p.write
	pkt.CreatedAt = p.created
	if err := r.net.SendNetRSRequest(pkt, c.host); err != nil {
		c.st.retire(ctx)
	}
}

// serverHandler services requests at a replica server's host, in that
// host's partition.
func (r *runner) serverHandler(sid int) fabric.HostHandler {
	srv := r.servers[sid]
	host := r.serverHostOf[sid]
	part := r.net.PartitionOf(host)
	return func(pkt *fabric.Packet) {
		reqMagic := pkt.Magic
		reqID := pkt.ReqID
		rid := pkt.RID
		rgid := pkt.RGID
		key := pkt.Key
		write := pkt.Write
		clientHost := pkt.Src
		created := pkt.CreatedAt
		ticket := srv.Submit(kv.Request{Done: func(sim.Time) {
			if r.tickets != nil {
				delete(r.tickets, reqID)
			}
			respMagic := wire.Magic(0)
			if reqMagic != 0 {
				respMagic = wire.InverseTransform(reqMagic)
			}
			resp := r.net.NewPacketIn(part)
			resp.ReqID = reqID
			resp.Magic = respMagic
			resp.RID = rid
			resp.RGID = rgid
			resp.Dst = clientHost
			resp.Server = sid
			resp.Status = srv.Status()
			resp.Key = key
			resp.Write = write
			resp.CreatedAt = created
			if err := r.net.SendResponse(resp, host); err != nil {
				return
			}
			if write {
				r.sendInvalidations(part, host, reqID, key)
			}
		}})
		if r.tickets != nil {
			r.tickets[reqID] = ticket
		}
	}
}

// sendInvalidations fans a committed write's coherence messages out from
// the server's host to every enabled ToR cache, one packet per rack in
// topology order; cross-partition deliveries ride the exchange like any
// other packet. With no enabled caches it is a no-op.
func (r *runner) sendInvalidations(part int, host topo.NodeID, reqID uint64, key uint64) {
	for _, tor := range r.invalidationToRs {
		inv := r.net.NewPacketIn(part)
		inv.ReqID = reqID
		inv.Key = key
		inv.Write = true
		inv.Dst = tor
		// Host→switch routes always exist; an error would be a topology bug.
		_ = r.net.SendInvalidation(inv, host, tor)
	}
}

// clientHandler receives responses at a client host, in that host's
// partition.
func (r *runner) clientHandler(c *client) fabric.HostHandler {
	st := c.st
	return func(pkt *fabric.Packet) {
		ctx, ok := st.pendings[pkt.ReqID]
		if !ok {
			return // stray (e.g. duplicate answered after completion cleanup)
		}
		now := st.eng.Now()
		// Cache hits carry the -1 server sentinel: no replica served them,
		// so there is no feedback to fold into the selector.
		if pkt.Server >= 0 {
			c.sel.OnResponse(pkt.Server, now-ctx.sentAt, pkt.Status)
		}
		if pkt.RID == wire.DegradedRID {
			st.degraded++
		}
		p := ctx.p
		if p.done {
			st.retire(ctx) // a duplicate raced the primary; first response won
			return
		}
		p.done = true
		p.timer.Cancel()
		if r.tickets != nil {
			r.cancelSiblings(p, ctx)
		}
		latency := now - p.created
		if c.p95 != nil {
			c.p95.Observe(float64(latency))
		}
		if p.logicalIdx >= r.warmup {
			st.rec.Record(latency)
			if r.cfg.KeepLatencyTrace {
				r.trace = append(r.trace, latency.Float64Ms())
			}
			if r.timeline != nil {
				r.timeline.Record(now, latency, pkt.RID == wire.DegradedRID)
			}
		}
		st.retire(ctx)
		st.completed++
		st.lastDone = now
		if r.set == nil {
			r.countTriggers(st.completed, now)
		}
	}
}

// cancelSiblings is CliRS-R95's cross-server cancellation: winner's
// response decided the race, so every sibling still queued at its server
// is withdrawn.
func (r *runner) cancelSiblings(p *pending, winner *packetCtx) {
	st := p.client.st
	for _, pid := range p.packetIDs {
		if pid == winner.pid {
			continue
		}
		sibling, live := st.pendings[pid]
		if !live {
			continue
		}
		if ticket, ok := r.tickets[pid]; ok && ticket.Cancel() {
			delete(r.tickets, pid)
			server := sibling.server
			st.retire(sibling)
			r.cancelled++
			if ab, ok := p.client.sel.(selection.Abandoner); ok && server >= 0 {
				ab.OnAbandon(server)
			}
		}
	}
}

// countTriggers fires the completion-count actions inline, on one
// partition, whose count is the run's. Shards replay the same actions as
// barrier globals at instants a pilot recovered (replayCountTriggers) and
// stop through the drive loop's completion predicate.
func (r *runner) countTriggers(n int, now sim.Time) {
	if n == r.deployAt {
		r.deployILPPlan()
	}
	// Measurement effectively starts with the first completion: the
	// monitors were constructed with windowStart == 0, so without a
	// reset the pipeline-fill idle time would dilute the first
	// snapshot's rates (the bias the normalization then overcorrects).
	if n == 1 && r.ctl != nil {
		r.ctl.ResetMonitors(now)
		r.resetAt = now
	}
	if r.injector != nil {
		r.injector.OnCompletion(n)
	}
	if n == r.stopAt {
		r.net.Engine().Stop()
	}
}

// recordError is the run's deterministic error sink: fault events that
// could not apply and solver fallbacks append here (occurrence order) and
// surface in Result.Errors instead of vanishing.
func (r *runner) recordError(msg string) {
	r.errs = append(r.errs, msg)
}

// errorf formats into the error sink.
func (r *runner) errorf(format string, args ...any) {
	r.recordError(fmt.Sprintf(format, args...))
}

// The runner implements faults.Actions: each method applies one fault
// effect against the live cluster, on the simulation timeline.

// CrashRSNode fails the targeted operator and routes the event through the
// controller's exception handling (§III-C scenario iii): the operator's
// traffic groups flip to Degraded Replica Selection without touching
// end-hosts.
func (r *runner) CrashRSNode(target string) (uint16, error) {
	op, err := r.resolveRSNode(target)
	if err != nil {
		return 0, err
	}
	if err := r.ctl.HandleOperatorFailure(op); err != nil {
		return 0, err
	}
	r.failedRSNode = op.ID()
	if plan, ok := r.ctl.CurrentPlan(); ok {
		r.plan = plan
	}
	return op.ID(), nil
}

// RecoverRSNode re-admits a crashed operator: the controller restores its
// pre-failure group assignments and the ToRs steer traffic through it
// again.
func (r *runner) RecoverRSNode(target string) (uint16, error) {
	op, err := r.resolveRSNode(target)
	if err != nil {
		return 0, err
	}
	if err := r.ctl.HandleOperatorRecovery(op); err != nil {
		return 0, err
	}
	if plan, ok := r.ctl.CurrentPlan(); ok {
		r.plan = plan
	}
	return op.ID(), nil
}

// resolveRSNode maps a fault-event target to an operator (schedule
// validation already guarantees sentinel/kind consistency). CliRS schemes
// have no control plane, so RSNode faults report an error there — the
// resilience experiment uses that as its unaffected control curve.
func (r *runner) resolveRSNode(target string) (*fabric.Operator, error) {
	if !r.netrs || r.ctl == nil || !r.hasPlan {
		return nil, fmt.Errorf("scheme %s has no NetRS control plane: %w", r.cfg.Scheme, ErrInvalidParam)
	}
	switch target {
	case faults.TargetBusiest:
		// Sorted iteration makes the victim deterministic: with map order,
		// ties in the selection counters would fail a different operator
		// on different runs of the same seed. Already-failed operators are
		// skipped so repeated crashes hit fresh victims.
		var busiest *fabric.Operator
		var most uint64
		for _, op := range r.net.OperatorsSorted() {
			if op.Failed() {
				continue
			}
			if s := op.Stats().Selections; s > most {
				busiest, most = op, s
			}
		}
		if busiest == nil {
			return nil, fmt.Errorf("no live operator with selections to crash: %w", ErrInvalidParam)
		}
		return busiest, nil
	case faults.TargetFailed:
		ids := r.ctl.FailedOperators()
		if len(ids) == 0 {
			return nil, fmt.Errorf("no failed operator to recover: %w", ErrInvalidParam)
		}
		return r.net.OperatorByID(ids[len(ids)-1])
	default:
		id, err := strconv.ParseUint(target, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("rsnode target %q: %w", target, ErrInvalidParam)
		}
		return r.net.OperatorByID(uint16(id))
	}
}

// SetServerSlowdown scales a replica server's mean service time — the
// brownout fault.
func (r *runner) SetServerSlowdown(server int, mult float64) error {
	if server < 0 || server >= len(r.servers) {
		return fmt.Errorf("server %d of %d: %w", server, len(r.servers), ErrInvalidParam)
	}
	return r.servers[server].SetSlowdown(mult)
}

// CrashServer halts a replica server: its queue grows (and times out
// clients' patience) until RestartServer. In-flight service completes —
// the simulation has no client-side retry machinery, so a crash models an
// outage that stalls rather than drops requests.
func (r *runner) CrashServer(server int) error {
	if server < 0 || server >= len(r.servers) {
		return fmt.Errorf("server %d of %d: %w", server, len(r.servers), ErrInvalidParam)
	}
	r.servers[server].Pause()
	return nil
}

// RestartServer resumes a crashed server, draining its queue.
func (r *runner) RestartServer(server int) error {
	if server < 0 || server >= len(r.servers) {
		return fmt.Errorf("server %d of %d: %w", server, len(r.servers), ErrInvalidParam)
	}
	r.servers[server].Resume()
	return nil
}

// SetRackLinkDelay spikes (or with extra ≤ 0 clears) every fabric edge
// incident to the rack's ToR switch — a localized congestion event.
func (r *runner) SetRackLinkDelay(rack int, extra sim.Time) error {
	return setRackLinkDelay(r.ft, r.net, rack, extra)
}

// normalizeRates scales per-group tier rates in place so their total
// matches the offered load target (req/s), and returns the measured total
// before scaling. The scaling is symmetric: under-measured windows (close
// to the pipeline-fill time in scaled-down runs) are scaled up, and
// over-measured windows (a queue-drain burst compressed into a short
// window) are scaled down — either bias would otherwise feed the solver a
// wrong utilization. The paper's administrators know A anyway (they derive
// the hop budget E from it). A nonpositive target or an empty window
// leaves the rates untouched.
func normalizeRates(rates map[int][3]float64, target float64) float64 {
	// Group order is sorted throughout: measured is a float sum (addition
	// order changes the low bits, and the derived scale feeds the solver).
	groups := slices.Sorted(maps.Keys(rates))
	measured := 0.0
	for _, g := range groups {
		tiers := rates[g]
		measured += tiers[0] + tiers[1] + tiers[2]
	}
	if measured <= 0 || target <= 0 {
		return measured
	}
	scale := target / measured
	for _, g := range groups {
		tiers := rates[g]
		for k := range tiers {
			tiers[k] *= scale
		}
		rates[g] = tiers
	}
	return measured
}

// deployILPPlan solves the placement from the warmup window's monitor
// statistics and deploys it (the NetRS controller's initial RSP update,
// §II). The measured rates are normalized so their total matches the known
// offered load (see normalizeRates). On shards it runs as a barrier
// global, where the control partition's clock reads the global's instant.
func (r *runner) deployILPPlan() {
	now := r.net.Engine().Now()
	rates := r.ctl.CollectTraffic()
	normalizeRates(rates, r.rate)
	plan, err := r.ctl.UpdateRSPWithTraffic(rates)
	if err != nil {
		// Keep the ToR plan; the run proceeds, which mirrors the
		// controller's behavior when no better RSP exists — but the
		// fallback is recorded rather than silent.
		r.errorf("ILP plan at %v: %v (keeping ToR plan)", now, err)
		return
	}
	r.plan = plan
	setOperatorWeights(r.net, len(plan.RSNodes))
	// The periodic controller loop follows the initial deployment; with
	// ControllerInterval unset the run is bit-identical to the
	// single-solve behavior.
	if r.cfg.ControllerInterval > 0 {
		r.every(now+r.cfg.ControllerInterval, r.cfg.ControllerInterval, r.runEpoch)
	}
}

// runEpoch is one controller epoch: snapshot the monitors, normalize the
// window's rates to the offered load, re-solve the placement, and deploy
// the delta. An empty window or a failed solve keeps the standing plan —
// the latter also records a Result.Errors entry.
func (r *runner) runEpoch() {
	now := r.net.Engine().Now()
	rec := EpochRecord{AtMs: now.Float64Ms(), Kept: true}
	rates := r.ctl.CollectTraffic()
	if measured := normalizeRates(rates, r.rate); measured > 0 {
		solveStart := time.Now() //lint:wallclock epoch solve wall time is diagnostic-only, excluded from digests
		plan, diff, err := r.ctl.UpdateRSPDelta(rates)
		rec.SolveWallMs = float64(time.Since(solveStart)) / 1e6 //lint:wallclock diagnostic-only, excluded from digests
		if err != nil {
			r.errorf("controller epoch at %v: %v (keeping plan)", now, err)
		} else {
			prev := len(r.plan.RSNodes)
			r.plan = plan
			rec.Kept = false
			rec.MovedGroups = len(diff.MovedGroups)
			if len(plan.RSNodes) != prev {
				setOperatorWeights(r.net, len(plan.RSNodes))
			}
		}
	}
	rec.RSNodes = len(r.plan.RSNodes)
	rec.DegradedGroups = len(r.plan.Degraded)
	r.epochs = append(r.epochs, rec)
}

// startQueueSampler periodically samples the cross-server queue-length
// dispersion — the load-oscillation signal of §I. The sampling period is
// the fluctuation interval (or 50 ms when fluctuation is disabled).
func (r *runner) startQueueSampler() {
	period := r.cfg.FluctuationInterval
	if period <= 0 {
		period = 50 * sim.Millisecond
	}
	r.every(period, period, func() {
		var w stats.Welford
		for _, srv := range r.servers {
			w.Observe(float64(srv.QueueSize()))
		}
		if w.Mean() > 0 {
			r.queueCV.Observe(w.CV())
		}
	})
}

// every runs fn at first, first+period, … until the run stops. One
// partition schedules engine events; shards schedule exclusive barrier
// globals — an event armed a full period early runs before its instant's
// other events, exactly an exclusive barrier's position. Either way the
// network's engine reads the action's instant while fn runs.
func (r *runner) every(first, period sim.Time, fn func()) {
	at := first
	var tick func()
	schedule := func() {
		var err error
		if r.set == nil {
			_, err = r.net.Engine().ScheduleAt(at, tick)
		} else {
			err = r.set.ScheduleGlobal(at, false, tick)
		}
		if err != nil {
			panic(fmt.Sprintf("cluster: schedule periodic action: %v", err))
		}
	}
	tick = func() {
		if r.done() {
			return // shards overrun the stop by up to one window
		}
		fn()
		at += period
		schedule()
	}
	schedule()
}
