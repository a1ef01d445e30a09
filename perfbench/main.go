// Command perfbench is the repository benchmark. It runs one named
// workload through netrs.Run, checks every run's outputs, and prints the
// result as one JSON object on the last line of standard output.
//
// Untraced (-trace 0) it reports the end-to-end metrics: simulator
// throughput, setup time, allocations, peak memory, and the simulated
// latency summary merged over the workload's seeds. Traced (-trace 1) it
// reports the per-layer metrics: the Result counters of one run, timings
// of each layer's public API driven from outside, and host-wide heap and
// shard measurements, with a span recorded at every call boundary.
//
// Usage:
//
//	go build -o perfbench . && ./perfbench -workload cache16-writes -seed 1 -seconds 40 -trace 0
//
// run.py builds and runs it from the repository root; README.md lists the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"netrs"
	"netrs/internal/sim"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one seed's or one Run call's outcome. The digest
// fingerprints the Result with epoch wall times cleared.
type runRecord struct {
	Run          string        `json:"run,omitempty"`
	Seed         uint64        `json:"seed"`
	Digest       string        `json:"digest"`
	Summary      netrs.Summary `json:"summary"`
	Completed    int           `json:"completed"`
	AllocsPerReq float64       `json:"allocs_per_req"`
	WallS        []float64     `json:"wall_s"`
}

func newRecord(run string, s runSample) runRecord {
	emitted, _ := expected(s.cfg)
	return runRecord{
		Run: run, Seed: s.cfg.Seed, Digest: digest(s.res), Summary: s.res.Summary, Completed: s.res.Completed,
		AllocsPerReq: float64(s.mallocs) / float64(emitted), WallS: []float64{s.wall.Seconds()},
	}
}

// provenance describes the run for a reader comparing two commits; it is
// printed on the line before the report.
type provenance struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	SimSeeds   []uint64 `json:"sim_seeds"`
	Traced     bool     `json:"traced"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	// Runs holds one record per simulation seed (untraced) or per Run call
	// (traced), with the digest of its Result for bit-identity checks
	// across commits.
	Runs []runRecord `json:"runs"`
	// TraceOverheadS is the traced Run's wall time minus an untraced Run
	// of the same config in the same process (traced runs only).
	TraceOverheadS *float64 `json:"trace_overhead_s,omitempty"`
	TraceFile      string   `json:"trace_file,omitempty"`
	FailedChecks   []string `json:"failed_checks,omitempty"`
}

// traceDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from; .gitignore names it.
const traceDir = ".bench_build/traces"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see README.md)")
	seed := fs.Uint64("seed", 1, "workload seed; the simulation seeds derive from it")
	seconds := fs.Float64("seconds", 40, "measure for at least this many host seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	commit := fs.String("commit", "unknown", "commit under test, recorded in the provenance line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v): %v\n", *name, *traced, *seconds, err)
		return 2
	}
	prov := provenance{
		Workload: w.name, Seed: *seed, SimSeeds: w.seeds(*seed), Traced: *traced == 1,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: *commit,
	}

	var rep report
	if *traced == 1 {
		ilp16, err16 := findWorkload("paper16-ilp")
		ilp32, err32 := findWorkload("scale32-sharded")
		if err16 != nil || err32 != nil {
			panic("perfbench: the workload table lost an ILP cell") // a bug, not an input
		}
		tr := newTracer()
		rep, err = perLayer(w, ilp16, ilp32, *seed, 200_000, tr, &prov)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		prov.TraceFile = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := tr.write(prov.TraceFile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			return 1
		}
		tr.printSelfTimes(os.Stderr)
	} else {
		rep, err = endToEnd(w, *seed, time.Duration(*seconds*float64(time.Second)), &prov)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	for _, c := range prov.FailedChecks {
		fmt.Fprintln(os.Stderr, "perfbench: failed check:", c)
	}
	if err := printJSON(prov); err != nil {
		return 1
	}
	if err := printJSON(rep); err != nil {
		return 1
	}
	return 0
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return err
	}
	fmt.Println(string(b))
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runSample is one timed netrs.Run call and what it allocated.
type runSample struct {
	cfg            netrs.Config
	res            netrs.Result
	err            error
	wall           time.Duration
	mallocs, bytes uint64
	gcCycles       uint32
}

// timedRun runs cfg once after a collection, so each run starts from a
// clean heap, and records its host cost. A non-nil tr records a span.
func timedRun(cfg netrs.Config, tr *tracer, name string) runSample {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := tr.begin(name, "cluster")
	start := time.Now()
	res, err := netrs.Run(cfg)
	wall := time.Since(start)
	tr.end(s, int64(res.Completed))
	runtime.ReadMemStats(&after)
	return runSample{
		cfg: cfg, res: res, err: err, wall: wall,
		mallocs:  after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		gcCycles: after.NumGC - before.NumGC,
	}
}

// setupReps is how many times setup_s rebuilds the static structures
// before the first simulation run and after each one; the reported value
// is the median of every build in the benchmark run. Spreading the builds
// over the run keeps one moment of host contention from moving them all.
const setupReps = 5

// measureSetup times buildStatic with the collector paused, so a
// collection triggered by earlier garbage is not charged to the build.
func measureSetup(cfg netrs.Config) ([]float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var setup []float64
	for i := 0; i <= setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if _, err := buildStatic(cfg, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i > 0 { // the first build warms the allocator and is not counted
			setup = append(setup, time.Since(start).Seconds())
		}
	}
	return setup, nil
}

// endToEnd runs the workload untraced. Each simulation seed runs once,
// then the seeds repeat while another run fits in minTime; a repeat must
// reproduce its seed's Result digest exactly. Every seed weighs the same
// in the result however many repeats the time allowed.
func endToEnd(w workload, seed uint64, minTime time.Duration, prov *provenance) (report, error) {
	setupCfg := w.config(seed)
	setup, err := measureSetup(setupCfg)
	if err != nil {
		return report{}, err
	}

	seeds := w.seeds(seed)
	var t tally
	start := time.Now()
	for i := 0; ; i++ {
		if i >= len(seeds) {
			mean := time.Since(start) / time.Duration(i)
			if time.Since(start)+mean > minTime {
				break
			}
		}
		k := i % len(seeds)
		cfg := w.config(seeds[k])
		s := timedRun(cfg, nil, "")
		ok := t.add(cfg, s.res, s.err)
		more, err := measureSetup(setupCfg)
		if err != nil {
			return report{}, err
		}
		setup = append(setup, more...)
		if i < len(seeds) {
			prov.Runs = append(prov.Runs, newRecord("", s))
			continue
		}
		rec := &prov.Runs[k]
		rec.WallS = append(rec.WallS, s.wall.Seconds())
		if d := digest(s.res); ok && d != rec.Digest {
			t.fail(cfg, fmt.Sprintf("repeat digest %s != first run %s", d, rec.Digest))
		}
	}
	prov.FailedChecks = t.checks
	m := aggregate(prov.Runs)
	m["setup_s"] = metric{median(setup), "s"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// aggregate takes the median over the seeds of each per-seed figure: the
// simulated summary, the allocations per request, and the throughput from
// the seed's median wall time. Latency tails and host times vary from
// seed to seed, so a median keeps one outlying seed from moving the
// result.
func aggregate(runs []runRecord) map[string]metric {
	var rate, allocs, mean, p99, p999 []float64
	for _, r := range runs {
		rate = append(rate, float64(r.Completed)/median(r.WallS))
		allocs = append(allocs, r.AllocsPerReq)
		mean = append(mean, r.Summary.MeanMs)
		p99 = append(p99, r.Summary.P99Ms)
		p999 = append(p999, r.Summary.P999Ms)
	}
	return map[string]metric{
		"sim_req_per_s":  {median(rate), "1/s"},
		"allocs_per_req": {median(allocs), "count"},
		"sim_mean_ms":    {median(mean), "ms"},
		"sim_p99_ms":     {median(p99), "ms"},
		"sim_p999_ms":    {median(p999), "ms"},
	}
}

// shardSpeedup is the sequential engine's wall time over the sharded
// engine's, given the wall time at the workload's own shard count and at
// the other one (altShards).
func shardSpeedup(own, other time.Duration, altShards int) float64 {
	seq, par := own, other
	if altShards == 1 {
		seq, par = other, own
	}
	return seq.Seconds() / par.Seconds()
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// perLayer is the traced run. It runs the workload's config once untraced,
// then under one root span builds the static structures, runs the config
// traced (the difference is the tracing overhead), runs it again at the
// other shard count (shard.speedup; the Result must not change), runs the
// two NetRS-ILP cells the listed workloads leave out (their known defects
// stay on record), and times every layer driver.
func perLayer(w, ilp16, ilp32 workload, seed uint64, n int, tr *tracer, prov *provenance) (report, error) {
	cfg := w.config(seed)
	var t tally
	untraced := timedRun(cfg, nil, "")
	root := tr.begin("perfbench "+w.name, "bench")

	s := tr.begin("setup", "setup")
	st, err := buildStatic(cfg, tr)
	tr.end(s, 1)
	if err != nil {
		return report{}, fmt.Errorf("setup: %w", err)
	}

	run := timedRun(cfg, tr, "netrs.Run")
	t.add(untraced.cfg, untraced.res, untraced.err)
	if t.add(run.cfg, run.res, run.err) {
		if d := digest(untraced.res); d != digest(run.res) {
			t.fail(cfg, fmt.Sprintf("traced run digest %s != untraced %s", digest(run.res), d))
		}
	}
	overhead := (run.wall - untraced.wall).Seconds()
	prov.TraceOverheadS = &overhead

	alt := cfg
	alt.Shards = 2
	if cfg.EffectiveShards() > 1 {
		alt.Shards = 1
	}
	other := timedRun(alt, tr, fmt.Sprintf("netrs.Run shards=%d", alt.Shards))
	if t.add(other.cfg, other.res, other.err) {
		if d := digest(other.res); d != digest(run.res) {
			t.fail(alt, fmt.Sprintf("shards=%d digest %s != shards=%d %s", alt.Shards, d, cfg.EffectiveShards(), digest(run.res)))
		}
	}

	p16 := timedRun(ilp16.config(seed), tr, "netrs.Run paper16-ilp")
	p32 := timedRun(ilp32.config(seed), tr, "netrs.Run scale32-sharded")
	for _, r := range []runSample{p16, p32} {
		t.add(r.cfg, r.res, r.err)
	}
	prov.Runs = []runRecord{
		newRecord("untraced", untraced), newRecord("traced", run),
		newRecord(fmt.Sprintf("shards=%d", alt.Shards), other),
		newRecord("paper16-ilp", p16), newRecord("scale32-sharded", p32),
	}

	res := run.res
	emitted, _ := expected(cfg)
	var moved int
	var solveMs float64
	for _, e := range p32.res.Epochs {
		moved += e.MovedGroups
		solveMs += e.SolveWallMs
	}
	m := map[string]metric{
		"shard.speedup":              {shardSpeedup(untraced.wall, other.wall, alt.Shards), "x"},
		"cluster.sim_span_s":         {float64(res.SimulatedSpan) / float64(sim.Second), "s"},
		"fabric.rsnodes":             {float64(res.RSNodes), "count"},
		"fabric.operator_selections": {float64(res.OperatorSelections), "count"},
		"fabric.max_accel_util":      {res.MaxAccelUtilization, "ratio"},
		"kv.server_load_cv":          {res.ServerLoadCV, "ratio"},
		"kv.queue_cv_mean":           {res.QueueCVMean, "ratio"},
		"cache.hits":                 {float64(res.CacheHits), "count"},
		"cache.misses":               {float64(res.CacheMisses), "count"},
		"cache.hit_rate":             {res.CacheHitRate(), "ratio"},
		"cache.admissions":           {float64(res.CacheAdmissions), "count"},
		"cache.evictions":            {float64(res.CacheEvictions), "count"},
		"cache.invalidations":        {float64(res.CacheInvalidations), "count"},
		"heap.bytes_per_req":         {float64(run.bytes) / float64(emitted), "B"},
		"heap.gc_cycles":             {float64(run.gcCycles), "count"},
		"paper16_ilp.sim_p99_ms":     {p16.res.Summary.P99Ms, "ms"},
		"scale32_ilp.sim_p99_ms":     {p32.res.Summary.P99Ms, "ms"},
		"scale32_ilp.server_load_cv": {p32.res.ServerLoadCV, "ratio"},
		"placement.epochs":           {float64(len(p32.res.Epochs)), "count"},
		"placement.moved_groups":     {float64(moved), "count"},
		"placement.epoch_solve_ms":   {solveMs, "ms"},
		"ctl.errors":                 {float64(len(p32.res.Errors)), "count"},
	}

	d, err := newDrivers(cfg, st, n)
	if err != nil {
		return report{}, err
	}
	for _, drv := range layerDrivers {
		s := tr.begin(drv.name, drv.layer)
		per, calls, err := drv.run(d)
		tr.end(s, calls)
		if err != nil {
			return report{}, fmt.Errorf("driver %s: %w", drv.name, err)
		}
		m[drv.name] = metric{per, drv.unit}
	}
	tr.end(root, int64(t.attempted))

	prov.FailedChecks = t.checks
	return report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}
