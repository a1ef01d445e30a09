package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"netrs"
	"netrs/internal/placement"
)

// expected is what a correct run of cfg must have emitted and measured.
func expected(cfg netrs.Config) (emitted, measured int) {
	warmup := int(cfg.WarmupFraction * float64(cfg.Requests))
	return cfg.Requests + warmup, cfg.Requests
}

// checkResult returns the name of the first output check res fails, or ""
// when every check holds. Result.Errors (mid-run control errors the run
// survived) are counted in ctl.errors and do not fail the run.
func checkResult(cfg netrs.Config, res netrs.Result) string {
	emitted, measured := expected(cfg)
	s := res.Summary
	switch {
	case res.Emitted != emitted:
		return fmt.Sprintf("emitted %d != requests+warmup %d", res.Emitted, emitted)
	case res.Completed != res.Emitted:
		return fmt.Sprintf("completed %d != emitted %d", res.Completed, res.Emitted)
	case s.Count != measured:
		return fmt.Sprintf("summary count %d != requests %d", s.Count, measured)
	case !(s.MeanMs > 0 && s.MeanMs <= s.P99Ms && s.P99Ms <= s.P999Ms) || math.IsInf(s.P999Ms, 0):
		return fmt.Sprintf("summary not ordered 0 < mean %v <= p99 %v <= p99.9 %v", s.MeanMs, s.P99Ms, s.P999Ms)
	case res.SimulatedSpan <= 0:
		return "simulated span not positive"
	}
	if cfg.Scheme == netrs.SchemeNetRSILP && (res.PlanMethod == 0 || res.PlanMethod == placement.MethodToR || res.RSNodes <= 0) {
		return fmt.Sprintf("no placement plan deployed (method %v, rsnodes %d)", res.PlanMethod, res.RSNodes)
	}
	if cfg.CacheBytes > 0 {
		consulted := res.CacheHits + res.CacheMisses
		switch {
		case consulted == 0:
			return "cache never consulted"
		case res.CacheHits > uint64(res.Completed):
			return fmt.Sprintf("cache hits %d exceed completed requests %d", res.CacheHits, res.Completed)
		case res.CacheEvictions+res.CacheInvalidations > res.CacheAdmissions:
			return fmt.Sprintf("cache removed %d+%d keys but admitted only %d",
				res.CacheEvictions, res.CacheInvalidations, res.CacheAdmissions)
		case cfg.WriteFraction == 0 && res.CacheInvalidations > 0:
			return "cache invalidations without writes"
		}
	}
	return ""
}

// digest fingerprints a Result for bit-identity comparisons across runs and
// commits. Epoch solve wall times are host measurements, so they are
// cleared first.
func digest(res netrs.Result) string {
	res.Epochs = append([]netrs.EpochRecord(nil), res.Epochs...)
	for i := range res.Epochs {
		res.Epochs[i].SolveWallMs = 0
	}
	b, err := json.Marshal(res)
	if err != nil {
		// Result holds only plain data; Marshal cannot fail on it.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// tally accounts operations: one operation is one emitted simulated
// request. A run that errors or fails a check counts all its requests as
// failed; otherwise the failures are emitted minus completed.
type tally struct {
	attempted, failed int
	checks            []string
}

// add reports whether the run passed; a check that compares the run with
// another (fail) is made only on a run that passed, so no run's requests
// are counted failed twice.
func (t *tally) add(cfg netrs.Config, res netrs.Result, runErr error) bool {
	emitted, _ := expected(cfg)
	t.attempted += emitted
	problem := ""
	if runErr != nil {
		problem = "run error: " + runErr.Error()
	} else {
		problem = checkResult(cfg, res)
	}
	if problem != "" {
		t.failed += emitted
		t.checks = append(t.checks, fmt.Sprintf("seed %d: %s", cfg.Seed, problem))
		return false
	}
	t.failed += res.Emitted - res.Completed
	return true
}

// fail records a check that spans several runs (a repeat or a shard count
// that did not reproduce a digest), counting that run's requests failed.
func (t *tally) fail(cfg netrs.Config, problem string) {
	emitted, _ := expected(cfg)
	t.failed += emitted
	t.checks = append(t.checks, fmt.Sprintf("seed %d: %s", cfg.Seed, problem))
}
