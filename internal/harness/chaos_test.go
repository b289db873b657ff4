package harness

import (
	"errors"
	"testing"
	"time"
)

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
