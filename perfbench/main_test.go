package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"netrs"
	"netrs/internal/sim"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsExist checks that every workload BENCHMARK.json names, and
// both NetRS-ILP cells the traced run needs, are in the workload table.
func TestWorkloadsExist(t *testing.T) {
	names := []string{"paper16-ilp", "scale32-sharded"}
	for _, w := range loadSpec(t).Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		if _, err := findWorkload(name); err != nil {
			t.Error(err)
		}
	}
}

func checkMetrics(t *testing.T, what string, rep report, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", what, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestEveryMetricEmitted shrinks each listed workload to a tiny size and
// checks that both modes emit every metric BENCHMARK.json names, with its
// unit, and that the traced run records spans for every layer.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	ilp16, err := findWorkload("paper16-ilp")
	if err != nil {
		t.Fatal(err)
	}
	ilp32, err := findWorkload("scale32-sharded")
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		tiny := w.shrink()

		var prov provenance
		rep, err := endToEnd(tiny, 3, 2*time.Second, &prov)
		if err != nil {
			t.Fatalf("%s end-to-end: %v", w.name, err)
		}
		checkMetrics(t, w.name+" end-to-end", rep, spec.EndToEnd)
		walls := 0
		for _, r := range prov.Runs {
			walls += len(r.WallS)
		}
		if len(prov.Runs) != simSeeds || walls <= simSeeds {
			t.Errorf("%s: %d seeds, %d runs", w.name, len(prov.Runs), walls)
		}

		prov = provenance{}
		tr := newTracer()
		rep, err = perLayer(tiny, ilp16.shrink(), ilp32.shrink(), 3, 2000, tr, &prov)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkMetrics(t, w.name+" traced", rep, spec.PerLayer)
		if prov.TraceOverheadS == nil {
			t.Errorf("%s: no tracing overhead recorded", w.name)
		}
		layers := map[string]bool{}
		for _, st := range tr.selfTimes() {
			layers[st.Layer] = true
		}
		for _, l := range []string{"bench", "setup", "cluster", "sim", "topo", "kv", "dist", "c3", "cache", "fabric", "placement", "stats", "workload"} {
			if !layers[l] {
				t.Errorf("%s: no span for layer %s", w.name, l)
			}
		}
	}
}

// TestInconsistentResultFails checks that the output checker counts every
// request of a run whose Result is inconsistent as failed, and names the
// check that failed.
func TestInconsistentResultFails(t *testing.T) {
	cache, err := findWorkload("cache16-writes")
	if err != nil {
		t.Fatal(err)
	}
	ilp, err := findWorkload("paper16-ilp")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []workload{cache.shrink(), ilp.shrink()} {
		cfg := w.config(5)
		res, err := netrs.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		emitted, _ := expected(cfg)
		var ok tally
		if passed := ok.add(cfg, res, nil); !passed || ok.failed != 0 || ok.attempted != emitted {
			t.Fatalf("%s: consistent result counted attempted=%d failed=%d: %v", w.name, ok.attempted, ok.failed, ok.checks)
		}

		breaks := map[string]func(r *netrs.Result){
			"completed": func(r *netrs.Result) { r.Completed-- },
			"emitted":   func(r *netrs.Result) { r.Emitted++ },
			"summary":   func(r *netrs.Result) { r.Summary.Count-- },
		}
		if cfg.Scheme == netrs.SchemeNetRSILP {
			breaks["placement"] = func(r *netrs.Result) { r.RSNodes = 0 }
		} else {
			breaks["cache"] = func(r *netrs.Result) { r.CacheHits = uint64(r.Completed) + 1 }
		}
		for check, mutate := range breaks {
			bad := res
			mutate(&bad)
			var tl tally
			if passed := tl.add(cfg, bad, nil); passed || tl.failed != emitted || len(tl.checks) != 1 || !strings.Contains(tl.checks[0], check) {
				t.Errorf("%s/%s: failed=%d of %d, checks %v", w.name, check, tl.failed, emitted, tl.checks)
			}
		}
		var errRun tally
		if passed := errRun.add(cfg, netrs.Result{}, os.ErrClosed); passed || errRun.failed != emitted {
			t.Errorf("%s: run error counted %d failed of %d", w.name, errRun.failed, emitted)
		}
	}
}

// TestShardSpeedup checks that shard.speedup is the sequential wall time
// over the sharded one whichever shard count the workload itself runs at.
func TestShardSpeedup(t *testing.T) {
	for _, c := range []struct {
		own, other time.Duration
		altShards  int
	}{
		{4 * time.Second, 2 * time.Second, 2}, // workload sequential, other run sharded
		{2 * time.Second, 4 * time.Second, 1}, // workload sharded, other run sequential
	} {
		if got := shardSpeedup(c.own, c.other, c.altShards); got != 2 {
			t.Errorf("shardSpeedup(%v, %v, %d) = %v, want 2", c.own, c.other, c.altShards, got)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", "a")
	child := tr.begin("child", "b")
	tr.end(child, 7)
	tr.end(root, 1)
	tr.spans[root].Start, tr.spans[root].End = 0, 10e6
	tr.spans[child].Start, tr.spans[child].End = 2e6, 6e6
	got := tr.selfTimes()
	if len(got) != 2 || got[0].SelfMs != 6 || got[1].SelfMs != 4 || got[1].Count != 7 {
		t.Fatalf("self times %+v, want a=6ms b=4ms count 7", got)
	}
	if tr.spans[child].Parent != tr.spans[root].ID {
		t.Fatalf("child parent %d, want %d", tr.spans[child].Parent, tr.spans[root].ID)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "cache16-writes", "-trace", "2"},
		{"-bogus"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// shrink returns a tiny version of the workload for the self-test: the
// same scheme, engine and features at a fraction of the size.
func (w workload) shrink() workload {
	inner := w.configure
	w.configure = func(c *netrs.Config) {
		inner(c)
		c.FatTreeK, c.Servers, c.Clients, c.Generators = 4, 6, 8, 4
		c.Requests = 3000
		c.Keys = 10_000
		if c.CacheBytes > 0 {
			c.CacheBytes = 16 << 10
		}
		if c.ControllerInterval > 0 {
			c.ControllerInterval = 20 * sim.Millisecond
		}
	}
	return w
}
