// Command benchmark is the repository's benchmark: four workloads on the
// embedded engine, end-to-end metrics measured with tracing off, and a traced
// run that gives per-layer counts, layer probe times and a per-transaction
// budget. See README.md in this directory.
//
//	go run ./benchmark -seed 1 -out result.json      every workload, every metric
//	go run ./benchmark -aa                            two sets of the same code, compared
//	bash benchmark/run.sh --workload hot-update --seed 1 --seconds 9 --trace 0
//
// The last form is what the benchmark driver runs (run.sh builds this program
// under .bench_build in the checkout and passes its arguments on); its last
// line of output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

const defaultSeconds = 9

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the driver's JSON line (default: all workloads)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Int("seconds", defaultSeconds, "seconds of measured window per run, split over the repetitions")
		traceMode    = flag.Int("trace", 0, "with -workload: 0 prints end-to-end metrics, 1 runs traced and prints per-layer metrics")
		out          = flag.String("out", "", "write every metric of a full run to this JSON file")
		traceOut     = flag.String("trace-out", "benchmark/out", "directory for the spans and counter diffs of traced runs")
		aa           = flag.Bool("aa", false, "run two full sets of the same code and compare their end-to-end medians to the bounds")
	)
	flag.Parse()
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds %d: want 1 to 60", *seconds))
	}
	cfg := defaultConfig(*seconds)
	var err error
	switch {
	case *workloadName != "":
		err = driverRun(cfg, *workloadName, *seed, *traceMode == 1, *traceOut)
	case *aa:
		err = aaRun(cfg, *seed, *traceOut)
	default:
		err = fullRun(cfg, *seed, *out, *traceOut)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// environment is the machine metadata written beside every result.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
	Conditions string `json:"conditions"`
}

const conditions = "closed loop, 2 client goroutines in one process, default GOMAXPROCS; device-free (LogForceDelay=0, PageIODelay=0, no cleaner); every commit forces the log, group commit on; keys k%08d, 100-byte values, 50,000-row base table; every repetition on a fresh forked engine"

func currentEnvironment() environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Clients: clients, Conditions: conditions,
	}
	if c := gitHead(); c != "" {
		env.Commit = c
	}
	return env
}

// gitHead reads the checked-out commit from .git in the working directory
// (`go run` does not stamp VCS information into the binary). It returns ""
// where there is no repository, as in the benchmark driver's checkout.
func gitHead() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref // detached HEAD: the hash itself
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return hash
		}
	}
	return ""
}

// driverLine is the one JSON object the driver reads from the last line.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun is one run of one workload, as the driver invokes it.
func driverRun(cfg config, name string, seed int64, traced bool, traceOut string) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	line := driverLine{Metrics: make(map[string]driverMetric)}
	var failures []string
	if traced {
		res, err := tracedRun(cfg, w, seed, traceOut)
		if err != nil {
			return err
		}
		line.Attempted, line.Failed, failures = res.attempted, res.failed, res.failures
		for _, d := range perLayer {
			v, ok := res.metrics[d.name]
			if !ok {
				return fmt.Errorf("%s: per-layer metric %s was not produced", name, d.name)
			}
			line.Metrics[d.name] = driverMetric{v, d.unit}
		}
	} else {
		run, err := runWorkload(cfg, w, seed)
		if err != nil {
			return err
		}
		line.Attempted, line.Failed, failures = run.totals()
		vals := run.endToEndValues()
		for _, n := range sortedNames(vals) {
			fmt.Println(formatValue(n, vals[n]))
		}
		for _, d := range endToEnd {
			line.Metrics[d.name] = driverMetric{vals[d.name].Value, d.unit}
		}
	}
	for _, f := range failures {
		fmt.Println("FAILED:", f)
	}
	line.Correct = line.Failed == 0
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, line.Failed, line.Attempted)
	}
	return nil
}
