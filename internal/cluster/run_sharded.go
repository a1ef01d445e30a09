package cluster

import (
	"fmt"

	"netrs/internal/kv"
	"netrs/internal/sim"
	"netrs/internal/stats"
	"netrs/internal/topo"
	"netrs/internal/workload"
)

// One runner executes every experiment, on one engine or decomposed over
// the topology's pod partitions (plus the control partition holding the
// core switches and the controller) and driven by sim.ShardSet's
// conservative windows. The sequential engine is the one-partition case of
// the same code, and the decomposition is event-order-exact with respect
// to it:
//
//   - Every simulation object lives in exactly one partition — servers and
//     clients in their host's pod, operators in their switch's partition —
//     and is only touched by events of that partition (or at barriers).
//     Handlers find their partition and engine through the network's
//     PartitionOf/EngineOf.
//   - Request state lives only in per-partition shardState records:
//     pendings, the pooled request records, the recorder and the
//     completion counters. One partition has exactly one.
//   - Cross-partition influence travels exclusively through fabric packets
//     crossing aggregation↔core links, which the sharded Network routes
//     through the exchange; the one-link latency is the lookahead.
//
// Four selections depend on the engine mode, each made from
// Config.EffectiveShards:
//
//   - construction (setup): one sim.Engine under fabric.NewNetwork, or a
//     sim.ShardSet under fabric.NewShardedNetwork;
//   - the arrival feed (setupFeed): the live source or trace replay, or a
//     pre-generated sequence (the source's tick times and draws depend only
//     on its own RNG streams, so it is identical to the live source's)
//     scheduled into each client's partition at absolute times;
//   - periodic and global actions (every, replayCountTriggers): engine
//     events, or exclusive/inclusive ShardSet globals at barriers;
//   - the drive loop (run, countTriggers): RunUntil with an inline stop at
//     the last completion, or ShardSet.Run with a completion predicate.
//
// Completion-count triggers (monitor reset, ILP deployment, fault
// injection, stop) fire inline on one partition. No partition can observe
// the run-wide count mid-window, so on shards a pilot — the same runner on
// one partition, stopped at the deployment count, before which the
// dynamics are deployment-independent — recovers the instants of the reset
// and the deployment, which then replay as globals.
//
// The only divergences from the one-engine order are ties at identical
// integer-nanosecond instants between events of different partitions (or a
// global and a partition event), whose relative order one engine resolves
// by scheduling sequence. Event times are sums of float64-derived service,
// interarrival, and link delays, so such collisions do not occur in
// practice; the golden shard-digest test pins the equality.

// timedRequest is one pre-generated workload arrival.
type timedRequest struct {
	at  sim.Time
	req workload.Request
}

// shardState is one partition's slice of the run state. Each instance is
// touched only by its own partition's events during windows, so workers
// never contend.
type shardState struct {
	part      int
	eng       *sim.Engine
	pendings  map[uint64]*packetCtx
	rec       *stats.Recorder
	arrived   int
	completed int
	degraded  uint64
	lastDone  sim.Time

	// ctxFree recycles packetCtx records within the partition: a context
	// is dead the moment its pid leaves pendings, which only happens once
	// its launch event has fired, so the steady-state request flow
	// allocates no new ones.
	ctxFree []*packetCtx
	// pendFree recycles pending records. A pending is dead once it is done
	// and its refcount of live contexts drops to zero: every reference to
	// it goes through a packetCtx, except the CliRS-R95 timer, which
	// completion cancels.
	pendFree []*pending
	// ctxMade and pendMade count the records ever allocated, so a test
	// can check that each is either live or on its free list.
	ctxMade, pendMade int
}

// newCtx takes a packetCtx off the partition's free list, or allocates
// one when the list is dry, and initializes it to v.
func (st *shardState) newCtx(v packetCtx) *packetCtx {
	if n := len(st.ctxFree); n > 0 {
		ctx := st.ctxFree[n-1]
		st.ctxFree = st.ctxFree[:n-1]
		*ctx = v
		return ctx
	}
	st.ctxMade++
	ctx := new(packetCtx)
	*ctx = v
	return ctx
}

// retire kills a context: its pid leaves pendings, the record returns to
// the free list zeroed (so a stale reader trips over zero values instead
// of a previous request's state), and its pending follows once done and
// unreferenced.
func (st *shardState) retire(ctx *packetCtx) {
	delete(st.pendings, ctx.pid)
	p := ctx.p
	*ctx = packetCtx{}
	st.ctxFree = append(st.ctxFree, ctx)
	p.refs--
	if p.refs == 0 && p.done {
		ids := p.packetIDs[:0]
		*p = pending{}
		p.packetIDs = ids
		st.pendFree = append(st.pendFree, p)
	}
}

// newPending takes a pending off the partition's free list, or allocates
// one when the list is dry, and initializes it to v. The recycled record
// keeps its packetIDs capacity so re-registration never grows a slab.
func (st *shardState) newPending(v pending) *pending {
	if n := len(st.pendFree); n > 0 {
		p := st.pendFree[n-1]
		st.pendFree = st.pendFree[:n-1]
		ids := p.packetIDs
		*p = v
		p.packetIDs = ids
		return p
	}
	st.pendMade++
	p := new(pending)
	*p = v
	return p
}

// pregenerate runs the synthetic source against a scratch engine that
// carries nothing else and records the emission sequence. The source's
// tick times and draws depend only on its own streams (per-generator
// Poisson processes; key and client draws in emission order), and the
// relative order of equal-instant ticks reduces to the order of their
// scheduling instants, which the scratch engine reproduces — so the
// sequence is identical to what the live source emits inside a full run.
func pregenerate(srcCfg workload.SourceConfig, rng *sim.RNG) ([]timedRequest, error) {
	eng := sim.NewEngine()
	out := make([]timedRequest, 0, srcCfg.Total)
	src, err := workload.NewSource(srcCfg, eng, rng, func(req workload.Request) {
		out = append(out, timedRequest{at: eng.Now(), req: req})
	})
	if err != nil {
		return nil, err
	}
	src.Start()
	eng.Run()
	return out, nil
}

// scheduleArrivals schedules each pre-generated arrival into its client's
// partition at its absolute instant. Arrivals for one partition are
// scheduled in arrival order, which is the FIFO order one engine gives
// equal-instant emissions.
func (r *runner) scheduleArrivals(arrivals []timedRequest) error {
	if len(arrivals) != r.total {
		return fmt.Errorf("pre-generated %d arrivals, want %d: %w", len(arrivals), r.total, ErrInvalidParam)
	}
	// The arrival travels as a pointer into the arrivals slice — boxing
	// the bare request would cost one allocation per arrival.
	arrive := func(arg any) { r.onArrival(arg.(*timedRequest).req) }
	for i := range arrivals {
		a := &arrivals[i]
		if _, err := r.clients[a.req.Client].st.eng.ScheduleArgAt(a.at, arrive, a); err != nil {
			return err
		}
	}
	return nil
}

// replayCountTriggers recovers the instants of the first completion and
// the ILP deployment count from a pilot and registers the monitor reset
// and the deployment there as inclusive globals: one engine performs both
// inside the completion's handler, i.e. after that instant's partition
// events. NetRS-ToR also resets its monitors at the first completion, but
// nothing ever reads them (only the ILP deployment and epochs consult
// monitor traffic), so on shards that reset is unobservable and skipped.
func (r *runner) replayCountTriggers() error {
	t1, tm, err := runPilot(r.cfg, r.deployAt, r.ft, r.ring)
	if err != nil {
		return err
	}
	globals := []struct {
		at sim.Time
		fn func()
	}{{t1, func() { r.ctl.ResetMonitors(t1) }}, {tm, r.deployILPPlan}}
	if tm == t1 {
		// Deployment at the very first completion, which deploys before
		// resetting.
		globals[0], globals[1] = globals[1], globals[0]
	}
	for _, g := range globals {
		if err := r.set.ScheduleGlobal(g.at, true, g.fn); err != nil {
			return err
		}
	}
	return nil
}

// runPilot runs the experiment on one partition up to the stop-th
// completion with the deployment suppressed, returning the instants of
// the first and stop-th completions. It shares the caller's read-only
// topology and ring rather than rebuilding them.
func runPilot(cfg Config, stop int, ft *topo.Topology, ring *kv.Ring) (t1, tm sim.Time, err error) {
	cfg.Shards = 1
	p, err := newRunner(cfg, ft, ring)
	if err != nil {
		return 0, 0, err
	}
	p.deployAt, p.stopAt = 0, stop
	if err := p.run(); err != nil {
		return 0, 0, fmt.Errorf("pilot: %w", err)
	}
	return p.resetAt, p.parts[0].lastDone, nil
}
