package cluster

import (
	"fmt"
	"testing"
)

// checkPools audits a finished run's pooled request records across every
// partition: each live packetCtx (one still in a pendings map) is off the
// free lists, its pending is off the free lists, every such pending's
// refcount equals the live contexts pointing at it, and every record ever
// allocated is either live or on its free list. With drained set,
// every partition's pendings must also be empty — the case for schemes
// that send no duplicates, where the last completion retires the last
// context.
func (r *runner) checkPools(drained bool) error {
	freeCtx := make(map[*packetCtx]bool)
	freePending := make(map[*pending]bool)
	for _, st := range r.parts {
		for _, ctx := range st.ctxFree {
			freeCtx[ctx] = true
		}
		for _, p := range st.pendFree {
			if p.refs != 0 {
				return fmt.Errorf("partition %d: free pending holds %d refs", st.part, p.refs)
			}
			freePending[p] = true
		}
	}
	live := make(map[*pending]int)
	for _, st := range r.parts {
		if made, held := st.ctxMade, len(st.ctxFree)+len(st.pendings); made != held {
			return fmt.Errorf("partition %d: %d contexts allocated, %d live or free", st.part, made, held)
		}
		if drained && len(st.pendings) > 0 {
			return fmt.Errorf("partition %d: %d contexts still pending", st.part, len(st.pendings))
		}
		for pid, ctx := range st.pendings {
			switch {
			case ctx.pid != pid:
				return fmt.Errorf("partition %d: pid %d maps to a context for pid %d", st.part, pid, ctx.pid)
			case freeCtx[ctx]:
				return fmt.Errorf("partition %d: live context %d is on the free list", st.part, pid)
			case freePending[ctx.p]:
				return fmt.Errorf("partition %d: live context %d points at a free pending", st.part, pid)
			}
			live[ctx.p]++
		}
	}
	for p, n := range live {
		if p.refs != n {
			return fmt.Errorf("pending %d: refs %d, live contexts %d", p.logicalIdx, p.refs, n)
		}
	}
	made := 0
	for _, st := range r.parts {
		made += st.pendMade
	}
	if held := len(freePending) + len(live); made != held {
		return fmt.Errorf("%d pendings allocated, %d live or free", made, held)
	}
	return nil
}

// TestPooledRecordsConserved runs every scheme on one engine and the
// shard-capable NetRS schemes on shards, then audits the pooled records.
// CliRS-R95 with duplicate cancellation exercises the paths where a
// refcount slip would reuse a live record: duplicate timers, duplicates
// racing the primary, and siblings withdrawn at their servers.
func TestPooledRecordsConserved(t *testing.T) {
	type cell struct {
		scheme Scheme
		shards int
	}
	var cells []cell
	for _, s := range AllSchemes() {
		cells = append(cells, cell{s, 1})
	}
	for _, s := range []Scheme{SchemeNetRSToR, SchemeNetRSILP, SchemeNetRSCache} {
		cells = append(cells, cell{s, 2})
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s/shards=%d", c.scheme, c.shards), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.FatTreeK = 4
			cfg.Servers = 8
			cfg.Clients = 8
			cfg.Generators = 8
			cfg.Requests = 2000
			cfg.Scheme = c.scheme
			cfg.Shards = c.shards
			cfg.WriteFraction = 0.05
			cfg.CancelDuplicates = c.scheme == SchemeCliRSR95
			if cfg.IsCacheScheme() {
				cfg.CacheBytes = 64 << 10
			}
			r, err := newRunner(cfg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.run(); err != nil {
				t.Fatal(err)
			}
			res, err := r.result()
			if err != nil {
				t.Fatal(err)
			}
			if c.scheme == SchemeCliRSR95 && (res.RedundantSent == 0 || res.CancelledDuplicates == 0) {
				t.Fatalf("sent %d duplicates and cancelled %d; the test exercises nothing",
					res.RedundantSent, res.CancelledDuplicates)
			}
			if err := r.checkPools(c.scheme != SchemeCliRSR95); err != nil {
				t.Error(err)
			}
		})
	}
}
