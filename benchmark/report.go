package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// workloadReport is everything one workload produced in a full run.
type workloadReport struct {
	Why              string             `json:"why"`
	OpsAttempted     int                `json:"ops_attempted"`
	OpsFailed        int                `json:"ops_failed"`
	Failures         []string           `json:"failures,omitempty"`
	EndToEnd         map[string]value   `json:"end_to_end"`
	PerLayer         map[string]float64 `json:"per_layer"`
	CalibrationNs    []float64          `json:"calibration_ns"`
	WalRecordsPerRep []int              `json:"wal_records_total_per_repetition"`
}

type fullReport struct {
	Env       environment                `json:"environment"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"measured_seconds_per_workload"`
	Reps      int                        `json:"repetitions"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func printHeader(cfg config, seed int64) environment {
	env := currentEnvironment()
	fmt.Printf("ariesim benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d\n", env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit, seed)
	fmt.Printf("conditions: %s\n", conditions)
	fmt.Printf("per workload: %d base builds, %d repetitions of %v warm-up + %v measured, %d offline + %d online restarts per repetition\n",
		cfg.builds, cfg.reps, cfg.warmup, cfg.window, cfg.restarts, cfg.restarts)
	return env
}

// fullRun runs every workload end to end and traced and prints every metric
// by name with its unit.
func fullRun(cfg config, seed int64, out, traceOut string) error {
	report := fullReport{
		Env: printHeader(cfg, seed), Seed: seed, Seconds: cfg.window.Seconds() * float64(cfg.reps),
		Reps: cfg.reps, Workloads: make(map[string]*workloadReport),
	}
	failed := 0
	for _, w := range workloads {
		fmt.Printf("\n== %s ==\n%s\n", w.name, w.why)
		run, err := runWorkload(cfg, w, seed)
		if err != nil {
			return err
		}
		wr := &workloadReport{Why: w.why, EndToEnd: run.endToEndValues(), CalibrationNs: run.calibrations()}
		wr.OpsAttempted, wr.OpsFailed, wr.Failures = run.totals()
		for _, r := range run.reps {
			wr.WalRecordsPerRep = append(wr.WalRecordsPerRep, r.records)
		}
		fmt.Println("end to end (tracing off; repetitions pooled, lowest and highest repetition beside):")
		for _, n := range sortedNames(wr.EndToEnd) {
			fmt.Println(formatValue(n, wr.EndToEnd[n]))
		}
		fmt.Printf("  wal.records_total per repetition: %v (guard at %d)\n", wr.WalRecordsPerRep, walRecordLimit)

		traced, err := tracedRun(cfg, w, seed, traceOut)
		if err != nil {
			return err
		}
		wr.PerLayer = traced.metrics
		wr.PerLayer["env.calibration_spread"] = spreadOf(wr.CalibrationNs)
		wr.OpsAttempted += traced.attempted
		wr.OpsFailed += traced.failed
		wr.Failures = append(wr.Failures, traced.failures...)
		fmt.Println("per layer (ungated):")
		for _, d := range perLayer {
			fmt.Printf("  %-34s %16.4f %s\n", d.name, wr.PerLayer[d.name], d.unit)
		}
		fmt.Printf("  ops_attempted %d  ops_failed %d\n", wr.OpsAttempted, wr.OpsFailed)
		for _, f := range wr.Failures {
			fmt.Println("  FAILED:", f)
		}
		failed += wr.OpsFailed
		report.Workloads[w.name] = wr
	}
	if out != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("\nresult written to %s\n", out)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// aaRun runs two full sets of the same code, one after the other, and
// compares their end-to-end medians to the bounds and their one-client counts
// to each other. It fails on any excess.
func aaRun(cfg config, seed int64, traceOut string) error {
	printHeader(cfg, seed)
	type set struct {
		vals   map[string]map[string]value
		counts map[string]map[string]uint64
	}
	var sets [2]set
	for i := range sets {
		sets[i] = set{make(map[string]map[string]value), make(map[string]map[string]uint64)}
		for _, w := range workloads {
			fmt.Printf("set %d: %s\n", i+1, w.name)
			run, err := runWorkload(cfg, w, seed)
			if err != nil {
				return err
			}
			if _, failed, failures := run.totals(); failed > 0 {
				return fmt.Errorf("%s: %d operations failed: %v", w.name, failed, failures)
			}
			solo, err := run.img.soloRun(seed, nil)
			if err != nil {
				return err
			}
			sets[i].vals[w.name] = run.endToEndValues()
			sets[i].counts[w.name] = counterMap(solo.diff)
		}
	}
	excess := 0
	fmt.Printf("\n%-18s %-24s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "worse by", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0].vals[w.name][d.name].Value, sets[1].vals[w.name][d.name].Value
			worse := relWorse(a, b, d.better)
			verdict := ""
			if math.Abs(worse) > d.bound {
				verdict = "EXCESS"
				excess++
			}
			fmt.Printf("%-18s %-24s %14.4f %14.4f %8.1f%% %6.0f%% %s\n", w.name, d.name, a, b, 100*worse, 100*d.bound, verdict)
		}
		for _, n := range sortedNames(sets[0].counts[w.name]) {
			if a, b := sets[0].counts[w.name][n], sets[1].counts[w.name][n]; a != b {
				fmt.Printf("%-18s one-client count %s differs: %d vs %d\n", w.name, n, a, b)
				excess++
			}
		}
	}
	if excess > 0 {
		return fmt.Errorf("A/A: %d comparisons outside their bound", excess)
	}
	fmt.Println("A/A: every end-to-end median within its bound, one-client counts identical")
	return nil
}
