// The failover sweep lives in internal/harness (which imports this package,
// hence the external test package).
package repl_test

import (
	"testing"

	"ariesim/internal/harness"
	"ariesim/internal/repl"
)

// TestStandbySweepMini runs the full crash-promote sweep at race-friendly
// scale: lossy channel, semi-sync gate, boundary forks, zombie fencing.
func TestStandbySweepMini(t *testing.T) {
	o := harness.StandbySweepOpts{
		Seed:               7,
		Workers:            2,
		PreCrashCommits:    35,
		PostPromoteCommits: 8,
		Keys:               16,
		Faults: repl.ChannelFaults{
			Seed: 7, DropProb: 0.15, DupProb: 0.08,
			ReorderProb: 0.08, CorruptProb: 0.05, StallProb: 0.02,
		},
		RedoWorkers:    2,
		BoundaryStride: 3,
		Logf:           t.Logf,
	}
	if testing.Short() {
		o.PreCrashCommits, o.PostPromoteCommits, o.BoundaryStride = 20, 5, 6
	}
	res, err := harness.RunStandbySweep(o)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.CommitsAcked < o.PreCrashCommits+o.PostPromoteCommits {
		t.Fatalf("only %d acked commits", res.CommitsAcked)
	}
	if res.Boundaries == 0 {
		t.Fatalf("no boundary forks verified")
	}
	if res.ZombieRejected == 0 {
		t.Fatalf("zombie fencing never exercised")
	}
	if res.FailoverTTFC <= 0 {
		t.Fatalf("no failover TTFC measured")
	}
}
