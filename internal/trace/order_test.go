package trace_test

import (
	"bytes"
	"fmt"
	"testing"

	"sforder/internal/engine"
	"sforder/internal/progen"
	"sforder/internal/sched"
	"sforder/internal/trace"
	"sforder/internal/workload"
)

// checkOrder loads a capture and fails on the first record that breaks
// the order replay relies on — the strand life cycle trace.Rebuild holds
// every rebuild to: every strand and future a record names was introduced
// by an earlier event, no block or event of a strand follows the event
// ending it (nor precedes the sync that starts a placeholder), each get
// follows its future's put, and each sync follows the returns of the
// sinks it names.
func checkOrder(raw []byte) error {
	c, err := trace.Load(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	return (&trace.Rebuild{}).Run(c, sched.MultiTracer{}, nil)
}

// TestCaptureOrderParallel: captures recorded at four workers — generated
// programs standalone and tapped under full detection, and the
// dag-futures shapes — are read record by record and must keep the order
// checkOrder asserts, not only replay to the right verdict.
func TestCaptureOrderParallel(t *testing.T) {
	const workers = 4
	standalone := func(main func(*sched.Task)) ([]byte, error) {
		var buf bytes.Buffer
		rec := trace.NewRecorder(&buf)
		if _, err := sched.Run(sched.Options{Workers: workers, Aux: rec, Checker: rec}, main); err != nil {
			return nil, err
		}
		err := rec.Close()
		return buf.Bytes(), err
	}
	tapped := func(main func(*sched.Task)) ([]byte, error) {
		var buf bytes.Buffer
		_, err := engine.Run(engine.Config{Detector: engine.SFOrder, Workers: workers, Record: &buf}, main)
		return buf.Bytes(), err
	}
	check := func(name string, raw []byte, err error) {
		t.Helper()
		if err == nil {
			err = checkOrder(raw)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < seeds; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 5, MaxOps: 8, Addrs: 32})
		raw, err := standalone(p.Main())
		check(fmt.Sprintf("seed %d standalone", seed), raw, err)
		raw, err = tapped(p.Main())
		check(fmt.Sprintf("seed %d tapped", seed), raw, err)
	}
	for _, b := range []*workload.Benchmark{workload.Spine(60, 2), workload.Chain(200, 2), workload.Pipeline(12, 4, 2)} {
		raw, err := standalone(b.Make().Main)
		check(b.Name+" standalone", raw, err)
		raw, err = tapped(b.Make().Main)
		check(b.Name+" tapped", raw, err)
	}
}
