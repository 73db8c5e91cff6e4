package workload_test

import (
	"testing"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/sched"
	"sforder/internal/workload"
)

func TestChainComputesAndIsRaceFree(t *testing.T) {
	b := workload.Chain(50, 8)
	for _, serial := range []bool{true, false} {
		run := b.Make()
		reach := core.New(core.Config{})
		hist := detect.NewHistory(detect.Options{Reach: reach})
		_, err := sched.Run(sched.Options{
			Serial: serial, Workers: 3, Tracer: reach, Checker: hist,
		}, run.Main)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Verify(); err != nil {
			t.Fatal(err)
		}
		if hist.RaceCount() != 0 {
			t.Fatalf("serial=%v: chain raced: %v", serial, hist.Races())
		}
	}
}

func TestChainFutureCount(t *testing.T) {
	c, err := sched.Run(sched.Options{Serial: true}, workload.Chain(33, 4).Make().Main)
	if err != nil {
		t.Fatal(err)
	}
	if c.Futures != 34 { // 33 chain futures + root
		t.Errorf("futures = %d, want 34", c.Futures)
	}
	if c.Gets != 33 {
		t.Errorf("gets = %d, want 33", c.Gets)
	}
}

func TestFibComputesAndIsRaceFree(t *testing.T) {
	b := workload.Fib(12)
	for _, serial := range []bool{true, false} {
		run := b.Make()
		reach := core.New(core.Config{})
		hist := detect.NewHistory(detect.Options{Reach: reach})
		_, err := sched.Run(sched.Options{
			Serial: serial, Workers: 3, Tracer: reach, Checker: hist,
		}, run.Main)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Verify(); err != nil {
			t.Fatal(err)
		}
		if hist.RaceCount() != 0 {
			t.Fatalf("serial=%v: fib raced", serial)
		}
	}
}

func TestFibUsesNoFutures(t *testing.T) {
	c, err := sched.Run(sched.Options{Serial: true}, workload.Fib(10).Make().Main)
	if err != nil {
		t.Fatal(err)
	}
	if c.Futures != 1 {
		t.Errorf("futures = %d, want 1 (root only)", c.Futures)
	}
	if c.Spawns == 0 {
		t.Error("fib must spawn")
	}
}

func TestMicroBadParamsPanic(t *testing.T) {
	for i, f := range []func(){
		func() { workload.Chain(0, 1) },
		func() { workload.Chain(1, 0) },
		func() { workload.Fib(0) },
		func() { workload.Fib(99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
