package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ariesim/internal/recovery"
)

// Span names. The benchmark records spans from its own code, around its calls
// into the engine; spans inside the engine are a later issue.
type spanName uint8

const (
	spRunTxn spanName = iota
	spGet
	spUpdate
	spInsert
	spDelete
	spScan16
	spRoGet
	spRoScan16
	spRetry
	spCommitForce
	spCommitAck
	spRestart
	spAnalysis
	spRedo
	spUndo
	spFirstCommit
	spAwait
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"db.runtxn", "db.get", "db.update", "db.insert", "db.delete", "db.scan16",
	"db.ro_get", "db.ro_scan16", "db.retry", "db.commit_force", "db.commit_ack",
	"recovery.restart", "recovery.analysis", "recovery.redo", "recovery.undo",
	"recovery.first_commit", "recovery.await",
}

// span is one timed interval. Spans of one transaction share Txn; Parent is
// the index of the span that caused this one, or -1 for a root.
type span struct {
	Name       spanName
	Txn        uint32
	Parent     int32
	Start, End int64 // ns since the tracer's origin
}

// tracer keeps spans in memory for one goroutine. A nil *tracer records
// nothing, so client code calls it unconditionally and the untraced runs pay
// one nil check per call.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int32 // stack of open span indexes
	txn    uint32
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span under the innermost open span. A root span starts a new
// transaction id.
func (t *tracer) begin(name spanName) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	} else {
		t.txn++
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Txn: t.txn, Parent: parent, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes span id and every span opened inside it that is still open (a
// commit that failed leaves its commit span unclosed).
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top].End = now
		if top == id {
			return
		}
	}
}

// add records an already-measured child interval (the recovery Report walls).
func (t *tracer) add(name spanName, start, dur int64) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Txn: t.txn, Parent: parent, Start: start, End: start + dur})
}

// addPasses lays the passes of a restart report out under the open restart
// span root, one after the other from its start.
func (t *tracer) addPasses(root int32, rep *recovery.Report) {
	if t == nil || rep == nil {
		return
	}
	at := t.spans[root].Start
	for _, p := range []struct {
		name spanName
		wall time.Duration
	}{{spAnalysis, rep.AnalysisWall}, {spRedo, rep.RedoWall}, {spUndo, rep.UndoWall}} {
		t.add(p.name, at, int64(p.wall))
		at += int64(p.wall)
	}
}

// spanSummary is the per-name aggregate of a trace.
type spanSummary struct {
	Count  int
	Total  int64 // summed durations, ns
	SelfNs int64 // summed self time, ns
}

// summarize aggregates spans by name. A span's self time is its duration
// minus the part of it its child spans cover; children of one parent do not
// overlap here (one goroutine), so that is the plain sum of their durations.
func summarize(spans []span) [numSpanNames]spanSummary {
	var out [numSpanNames]spanSummary
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		a := &out[s.Name]
		a.Count++
		a.Total += d
		a.SelfNs += d - child[i]
	}
	return out
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Names    []string           `json:"span_names"`
	Columns  string             `json:"span_columns"`
	Spans    [][5]int64         `json:"spans"`
	Counters map[string]uint64  `json:"counter_diff"`
	Metrics  map[string]float64 `json:"per_layer"`
}

func writeTrace(path string, workload string, seed int64, spans []span, counters map[string]uint64, metrics map[string]float64) error {
	tf := traceFile{
		Workload: workload, Seed: seed, Names: spanNames[:],
		Columns:  "name_index, txn, parent_span_index, start_ns, end_ns",
		Spans:    make([][5]int64, len(spans)),
		Counters: counters, Metrics: metrics,
	}
	for i, s := range spans {
		tf.Spans[i] = [5]int64{int64(s.Name), int64(s.Txn), int64(s.Parent), s.Start, s.End}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}
