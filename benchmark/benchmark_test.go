package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ariesim/internal/core"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
)

// tinyConfig keeps every test far below a second of engine work. None of the
// tests asserts a time.
func tinyConfig() config {
	return config{
		rows: 2_000, queueLen: 100, tailTxns: 100, builds: 1, reps: 1, restarts: 1,
		window: 100 * time.Millisecond, warmup: 25 * time.Millisecond, slice: 20 * time.Millisecond,
		tracedTxns: 300, probeCalls: 400,
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram fails if a name in BENCHMARK.json is not
// emitted by the program or the reverse, or if a name or unit uses characters
// the contract does not allow.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q uses characters outside letters, digits, _ . -", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if strings.Join(bj.Command, " ") != "bash benchmark/run.sh" {
		t.Errorf("command = %v", bj.Command)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		checkName("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		checkName("end-to-end", m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: unit %q or bound %v outside the contract", m.Name, m.Unit, m.Bound)
		}
		if _, ok := endToEndFuncs[m.Name]; !ok && m.Name != "setup_s" {
			t.Errorf("end-to-end metric %q is never computed", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		checkName("per-layer", m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
}

// TestEveryMetricIsEmitted runs each workload end to end and traced at a tiny
// size and checks that every registered metric comes out, that the gated ones
// are never zero, and that no operation failed.
func TestEveryMetricIsEmitted(t *testing.T) {
	cfg := tinyConfig()
	for _, w := range workloads {
		run, err := runWorkload(cfg, w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if attempted, failed, failures := run.totals(); failed != 0 || attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, failed, attempted, failures)
		}
		vals := run.endToEndValues()
		for _, d := range endToEnd {
			if v, ok := vals[d.name]; !ok || v.Value <= 0 || math.IsNaN(v.Value) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.name, d.name, v.Value)
			}
		}
		res, err := tracedRun(cfg, w, 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Errorf("%s traced: %d operations failed: %v", w.name, res.failed, res.failures)
		}
		for _, d := range perLayer {
			if v, ok := res.metrics[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s missing or not a number (%v)", w.name, d.name, v)
			}
		}
		for name := range res.metrics {
			found := false
			for _, d := range perLayer {
				found = found || d.name == name
			}
			if !found {
				t.Errorf("%s: traced run emits %s, which is not a registered per-layer metric", w.name, name)
			}
		}
	}
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	cfg := tinyConfig()
	m := &model{stamps: make([]uint64, cfg.rows)}
	draw := func(seed int64) []int {
		c := newClient(nil, workloads[0], cfg, m, 0, phaseForward, seed, nil)
		var out []int
		for i := 0; i < 200; i++ {
			out = append(out, c.zipfRow(), c.scanStart(), c.rng.Intn(cfg.rows))
		}
		return out
	}
	a, b, other := draw(7), draw(7), draw(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 drew %d then %d at position %d", a[i], b[i], i)
		}
		if a[i] < 0 || a[i] >= cfg.rows {
			t.Fatalf("draw %d outside the %d rows", a[i], cfg.rows)
		}
		same = same && a[i] == other[i]
	}
	if same {
		t.Error("seeds 7 and 8 drew the same inputs")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	sorted := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want uint32
	}{{50, 5}, {99, 10}, {90, 9}, {10, 1}, {100, 10}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := relWorse(100, 90, "higher"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("relWorse(higher) = %v", got)
	}
	if got := relWorse(100, 90, "lower"); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("relWorse(lower) = %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// One transaction: root 0..100 with an update 10..60 (holding a nested get
	// 20..30) and a commit force 70..90.
	spans := []span{
		{Name: spRunTxn, Txn: 1, Parent: -1, Start: 0, End: 100},
		{Name: spUpdate, Txn: 1, Parent: 0, Start: 10, End: 60},
		{Name: spGet, Txn: 1, Parent: 1, Start: 20, End: 30},
		{Name: spCommitForce, Txn: 1, Parent: 0, Start: 70, End: 90},
	}
	sum := summarize(spans)
	if got := sum[spRunTxn].SelfNs; got != 30 {
		t.Errorf("root self time = %d, want 100-50-20 = 30", got)
	}
	if got := sum[spUpdate].SelfNs; got != 40 {
		t.Errorf("update self time = %d, want 50-10 = 40", got)
	}
	if got := sum[spGet]; got.Count != 1 || got.Total != 10 || got.SelfNs != 10 {
		t.Errorf("get summary = %+v", got)
	}

	tr := newTracer(8)
	root := tr.begin(spRunTxn)
	child := tr.begin(spUpdate)
	tr.end(child)
	force := tr.begin(spCommitForce) // never closed by its owner
	_ = force
	tr.end(root)
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open after the root ended", len(tr.open))
	}
	if tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Errorf("parents = %d %d %d", tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent)
	}
	next := tr.begin(spRunTxn)
	tr.end(next)
	if tr.spans[0].Txn == tr.spans[next].Txn || tr.spans[1].Txn != tr.spans[0].Txn {
		t.Error("spans of one transaction must share an id, and the next root must get a new one")
	}
	var none *tracer
	none.end(none.begin(spGet)) // a nil tracer records nothing and must not panic
}

// TestOneClientCountsRepeat: the traced one-client hot-update run, 2,000
// transactions, twice with one seed, gives identical counts.
func TestOneClientCountsRepeat(t *testing.T) {
	cfg := tinyConfig()
	cfg.tracedTxns = 1_000
	img, err := buildImage(cfg, workloadByName("hot-update"), 3)
	if err != nil {
		t.Fatal(err)
	}
	var got [2]metrics
	for i := range got {
		solo, err := img.soloRun(3, newTracer(1024))
		if err != nil {
			t.Fatal(err)
		}
		if solo.failed != 0 || solo.txns != 2_000 {
			t.Fatalf("run %d: %d transactions, %d failed: %v", i, solo.txns, solo.failed, solo.failures)
		}
		got[i] = make(metrics)
		countMetrics(got[i], solo, &repResult{})
	}
	for _, name := range []string{"wal.records_per_txn", "wal.bytes_per_txn", "buffer.fixes_per_txn", "lock.calls_per_txn"} {
		if got[0][name] != got[1][name] || got[0][name] == 0 {
			t.Errorf("%s: %v then %v", name, got[0][name], got[1][name])
		}
	}
}

// TestChecksFailOnCorruption: every correctness check must fail when the model
// or the table is deliberately wrong.
func TestChecksFailOnCorruption(t *testing.T) {
	cfg := tinyConfig()
	img, err := buildImage(cfg, workloadByName("churn-ooc"), 5)
	if err != nil {
		t.Fatal(err)
	}
	e := img.fork()
	if _, err := e.d.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := e.reopen(); err != nil {
		t.Fatal(err)
	}
	if err := e.check(img.m); err != nil {
		t.Fatalf("the honest model must pass: %v", err)
	}

	t.Run("acked write not read back", func(t *testing.T) {
		m := img.m.clone()
		m.stamps[17] ^= 1
		if err := e.checkTable(m); err == nil {
			t.Error("a wrong stamp passed")
		}
	})
	t.Run("row count", func(t *testing.T) {
		m := img.m.clone()
		m.qhi[1]++
		if got, want := len(m.expected()), len(img.m.expected())+1; got != want {
			t.Fatalf("the model expects %d rows, want %d", got, want)
		}
		if err := e.checkTable(m); err == nil {
			t.Error("a model with one more queue row passed")
		}
		m = img.m.clone()
		m.stamps = m.stamps[:len(m.stamps)-1]
		if err := e.checkTable(m); err == nil {
			t.Error("a model with one static row fewer passed")
		}
	})
	t.Run("loser row visible", func(t *testing.T) {
		var val [valueSize]byte
		putValue(val[:], loserBase, 0)
		if err := e.d.RunTxn(func(tx *txn.Tx) error { return e.t.Insert(tx, keyOf(loserBase), val[:]) }); err != nil {
			t.Fatal(err)
		}
		if err := e.checkTable(img.m); err == nil {
			t.Error("a visible loser row passed")
		}
		if err := e.d.RunTxn(func(tx *txn.Tx) error { return e.t.Delete(tx, keyOf(loserBase)) }); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("scan and get", func(t *testing.T) {
		c := newClient(e, img.w, cfg, img.m, 0, phaseForward, 5, nil)
		c.ro(func(tx *txn.Tx) error { return c.scan16(tx, 100, spRoScan16) })
		c.ro(func(tx *txn.Tx) error { return c.get(tx, 100, spRoGet) })
		if c.failed != 0 {
			t.Fatalf("an honest scan and get failed: %s", c.failure)
		}
		if err := e.d.RunTxn(func(tx *txn.Tx) error { return e.t.Delete(tx, e.keys[105]) }); err != nil {
			t.Fatal(err)
		}
		c.ro(func(tx *txn.Tx) error { return c.scan16(tx, 100, spRoScan16) })
		if c.failed != 1 {
			t.Errorf("a scan over a missing row counted %d failures, want 1", c.failed)
		}
		var val [valueSize]byte
		putValue(val[:], 104, 0) // the wrong row's value under key 105
		if err := e.d.RunTxn(func(tx *txn.Tx) error { return e.t.Insert(tx, e.keys[105], val[:]) }); err != nil {
			t.Fatal(err)
		}
		c.ro(func(tx *txn.Tx) error { return c.get(tx, 105, spRoGet) })
		if c.failed != 2 {
			t.Errorf("a get that returned a wrong row counted %d failures, want 2", c.failed)
		}
	})
	t.Run("window counters", func(t *testing.T) {
		r := &repResult{}
		r.diff.ReadOnlyLockCalls = 1
		r.diff.RedoApplied = 1
		r.finalChecks(e, img.m)
		if r.failed < 2 {
			t.Errorf("reader lock calls and recovery work in the window counted %d failures", r.failed)
		}
	})
	t.Run("VerifyConsistency", func(t *testing.T) {
		tx, err := e.d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := e.t.PrimaryIndex().Fetch(tx, e.keys[200], core.EQ)
		if err != nil || !res.Found {
			t.Fatalf("fetch: %v %v", res, err)
		}
		// Remove the index entry but not the record: the mirror is broken.
		if err := e.t.PrimaryIndex().Delete(tx, storage.Key{Val: e.keys[200], RID: res.Key.RID}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := e.check(img.m); err == nil {
			t.Error("an index entry without its record's mirror passed")
		}
	})
}
