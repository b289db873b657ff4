package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric. BENCHMARK.json lists the same names; a test
// fails when the two disagree.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which a gated end-to-end
	// metric may worsen. Zero marks an ungated metric.
	bound float64
}

// endToEnd are the gated metrics. The builder's contract wants every one of
// them on every workload and never zero, so each is defined on all four: every
// repetition restarts its workload's crash image and then runs traffic. The
// timed ones carry the contract's widest bound: this box's speed drifts by
// 10-25 % over minutes (see README.md, "Noise").
//
// A timed candidate is gated only if it would have passed the driver's own
// acceptance test on every pair of ten-seed sets measured on this box, taken in
// either order: spread within the bound, and the later median no worse than the
// earlier by more than the bound.
var endToEnd = []metricDef{
	{"txn_per_s", "1/s", "higher", 0.25},
	{"log_bytes_per_txn", "bytes", "lower", 0.05},
	{"retained_bytes_per_txn", "bytes", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// ungatedEndToEnd are end-to-end candidates that are printed with the
// end-to-end numbers but carry no bound, and ride in the per-layer list of
// BENCHMARK.json.
//
// txn_p50_us, txn_p99_us, cpu_us_per_txn and restart_ms fail the rule above:
// the box has phases of minutes in which the same instructions take a quarter
// longer (CPU time per transaction 46.6 -> 59.4 us on hot-update between two
// sets 25 minutes apart), and against the faster set the slower one reads 30 %,
// 38 %, 27 % and 26 % worse, where txn_per_s reads 20 % worse (the same
// slowdown reads smaller on a rate, 1 - 1/1.27, than on a time). With two
// closed-loop clients txn_per_s is 2 / mean latency, so the mean stays gated;
// setup_s sums every fork and restart of a run (half of it on crash-restart),
// so the restart paths still meet a bound.
//
// ttfc_ms is demoted by the issue's bound rule: on the forward workloads the
// first Update races the background drain for 45 to 210 pages, and its spread
// over ten seeds was 26-41 %. recovered_ms follows it: the online drain's wall
// time depends on both cores being free, and whole runs fall into one of two
// modes a third apart (49-52 ms or 63-72 ms on crash-restart, flipping from run
// to run), a spread over ten seeds of 21-22 % against a bound of at most 25 %.
//
// The reader-side metrics exist on one workload only, which the contract's
// every-metric-on-every-workload rule cannot gate.
var ungatedEndToEnd = []metricDef{
	{"txn_p50_us", "us", "lower", 0},
	{"txn_p99_us", "us", "lower", 0},
	{"cpu_us_per_txn", "us", "lower", 0},
	{"restart_ms", "ms", "lower", 0},
	{"ttfc_ms", "ms", "lower", 0},
	{"recovered_ms", "ms", "lower", 0},
	{"ro_txn_per_s", "1/s", "higher", 0},
	{"ro_p50_us", "us", "lower", 0},
	{"ro_p99_us", "us", "lower", 0},
}

// metrics is one run's values by name.
type metrics map[string]float64

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spreadOf is (max - min) / median.
func spreadOf(vs []float64) float64 {
	lo, hi := minMax(vs)
	return ratio(hi-lo, median(vs))
}

// sample is what the end-to-end metrics are computed from: one repetition, or
// all repetitions of a run pooled. A run reports the pooled value, and the
// lowest and highest single-repetition value beside it.
type sample struct {
	slices                     []slice
	restartMs, ttfcMs, recovMs []float64
	rwTxns, roTxns             float64
	logBytes, retainedB        float64
}

func (r *repResult) sample() sample {
	return sample{
		slices: r.slices, restartMs: r.restartMs, ttfcMs: r.ttfcMs, recovMs: r.recovMs,
		rwTxns: r.rwTxns, roTxns: r.roTxns, logBytes: float64(r.diff.LogBytes), retainedB: r.retainedB,
	}
}

func (run *runResult) pooled() sample {
	var p sample
	for _, r := range run.reps {
		s := r.sample()
		p.slices = append(p.slices, s.slices...)
		p.restartMs = append(p.restartMs, s.restartMs...)
		p.ttfcMs = append(p.ttfcMs, s.ttfcMs...)
		p.recovMs = append(p.recovMs, s.recovMs...)
		p.rwTxns += s.rwTxns
		p.roTxns += s.roTxns
		p.logBytes += s.logBytes
		p.retainedB += s.retainedB
	}
	return p
}

// overSlices is the median of f over the slices of the measured windows. The
// box this was written on drifts in speed by tens of percent over seconds and
// minutes; the median over quarter-second slices ignores the short stalls.
func (s sample) overSlices(f func(slice) float64) float64 {
	vs := make([]float64, len(s.slices))
	for i, sl := range s.slices {
		vs[i] = f(sl)
	}
	return median(vs)
}

// endToEndFuncs computes each end-to-end metric. Rates and latencies are
// medians over slices (latencies pooled over the clients within a slice, so
// the per-slice percentile is what gets medianed); restart times are medians
// over the timed restarts; the two byte metrics are totals over the windows.
var endToEndFuncs = map[string]func(sample) float64{
	"txn_per_s": func(s sample) float64 {
		return s.overSlices(func(sl slice) float64 { return ratio(sl.rwTxns, sl.seconds) })
	},
	"txn_p50_us": func(s sample) float64 { return s.overSlices(func(sl slice) float64 { return sl.rwP50 }) },
	"txn_p99_us": func(s sample) float64 { return s.overSlices(func(sl slice) float64 { return sl.rwP99 }) },
	"cpu_us_per_txn": func(s sample) float64 {
		return s.overSlices(func(sl slice) float64 { return ratio(sl.cpuS*1e6, sl.rwTxns+sl.roTxns) })
	},

	"log_bytes_per_txn":      func(s sample) float64 { return ratio(s.logBytes, s.rwTxns) },
	"retained_bytes_per_txn": func(s sample) float64 { return ratio(s.retainedB, s.rwTxns) },

	"restart_ms":   func(s sample) float64 { return median(s.restartMs) },
	"ttfc_ms":      func(s sample) float64 { return median(s.ttfcMs) },
	"recovered_ms": func(s sample) float64 { return median(s.recovMs) },

	"ro_txn_per_s": func(s sample) float64 {
		return s.overSlices(func(sl slice) float64 { return ratio(sl.roTxns, sl.seconds) })
	},
	"ro_p50_us": func(s sample) float64 { return s.overSlices(func(sl slice) float64 { return sl.roP50 }) },
	"ro_p99_us": func(s sample) float64 { return s.overSlices(func(sl slice) float64 { return sl.roP99 }) },
}

// setupSeconds is the run's set-up time: the median base build, the redo tail,
// and every fork and restart of the repetitions.
func (run *runResult) setupSeconds() float64 {
	s := median(run.img.buildS) + run.img.tailS
	for _, r := range run.reps {
		s += r.bringUpS
	}
	return s
}

// value is a reported number, with the lowest and highest repetition (for
// setup_s: base build) and the number of observations behind it.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Gated   bool    `json:"gated"`
	Samples int     `json:"samples"`
}

// endToEndValues reports every end-to-end metric and candidate of a run.
func (run *runResult) endToEndValues() map[string]value {
	out := make(map[string]value)
	pooled := run.pooled()
	for _, defs := range [][]metricDef{endToEnd, ungatedEndToEnd} {
		for _, d := range defs {
			v := value{Unit: d.unit, Gated: d.bound > 0}
			if d.name == "setup_s" {
				v.Value = run.setupSeconds()
				lo, hi := minMax(run.img.buildS)
				rest := v.Value - median(run.img.buildS)
				v.Min, v.Max, v.Samples = rest+lo, rest+hi, len(run.img.buildS)
			} else {
				f := endToEndFuncs[d.name]
				var perRep []float64
				for _, r := range run.reps {
					perRep = append(perRep, f(r.sample()))
				}
				v.Value = f(pooled)
				v.Min, v.Max = minMax(perRep)
				v.Samples = pooled.observations(d.name)
			}
			out[d.name] = v
		}
	}
	return out
}

// observations is how many restarts or transactions a metric's value rests on.
func (s sample) observations(name string) int {
	switch name {
	case "restart_ms":
		return len(s.restartMs)
	case "ttfc_ms", "recovered_ms":
		return len(s.ttfcMs)
	case "ro_txn_per_s", "ro_p50_us", "ro_p99_us":
		return int(s.roTxns)
	default:
		return int(s.rwTxns)
	}
}

func (run *runResult) totals() (attempted, failed int, failures []string) {
	for _, r := range run.reps {
		attempted += r.attempted
		failed += r.failed
		failures = append(failures, r.failures...)
	}
	return
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func formatValue(name string, v value) string {
	gate := "ungated"
	if v.Gated {
		gate = "gated"
	}
	return fmt.Sprintf("  %-28s %14.4f %-6s [min %.4f, max %.4f] n=%d %s", name, v.Value, v.Unit, v.Min, v.Max, v.Samples, gate)
}
