package harness

import (
	"errors"
	"testing"
	"time"

	"ariesim/internal/wal"
)

// Acks can arrive against commit order (early lock release lets a
// transaction commit behind the one whose lock it took and be acknowledged
// first); the model must end with what the later commit wrote.
func TestChaosModelFollowsCommitOrder(t *testing.T) {
	m := &chaosModel{rows: map[string]string{}, at: map[string]wal.LSN{}}
	val := func(s string) *string { return &s }
	m.apply(20, map[string]*string{"k": val("second"), "gone": nil})
	m.apply(10, map[string]*string{"k": val("first"), "gone": val("inserted before the delete")})
	m.apply(30, map[string]*string{"other": val("x")})
	got := m.snapshot()
	if len(got) != 2 || got["k"] != "second" || got["other"] != "x" {
		t.Fatalf("model = %v, want k=second, other=x", got)
	}
}

// A failure found while the engine is down — between a crash point's Crash
// and its Restart — must come back as RunChaosSweep's error. The workers are
// parked in AwaitUp at that moment and nothing will release them; waiting
// for them used to end the process with "all goroutines are asleep".
func TestChaosSweepReportsFailureWhileDown(t *testing.T) {
	planted := errors.New("planted verification failure")
	type result struct {
		res *ChaosResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := RunChaosSweep(ChaosOpts{
			Seed: 11, Workers: 4, Crashes: 3, CommitsPerPhase: 6,
			whileDown: func(point int) error {
				if point == 1 {
					return planted
				}
				return nil
			},
		})
		done <- result{res, err}
	}()
	select {
	case r := <-done:
		if !errors.Is(r.err, planted) {
			t.Fatalf("RunChaosSweep = (%v, %v), want the planted failure", r.res, r.err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("RunChaosSweep did not return: its failure exit is waiting for workers parked on a down engine")
	}
}
