package trace_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"sforder/internal/engine"
	"sforder/internal/progen"
	"sforder/internal/sched"
	"sforder/internal/trace"
	"sforder/internal/workload"
)

// Strand states in a capture read in file order.
const (
	unseen  = iota
	waiting // a region's join placeholder, introduced but not yet synced
	live
	ended
	returned // ended by its return, so a sync may name it
)

// checkOrder reads a capture in file order and fails on the first record
// that breaks the order replay relies on: every strand and future a record
// names was introduced by an earlier event, no block or event of a strand
// follows the event ending it (nor precedes the sync that starts a
// placeholder), each get follows its future's put, and each sync follows
// the returns of the sinks it names.
func checkOrder(raw []byte) error {
	st, err := trace.OpenStream(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	strands := map[uint64]int{}
	futs := map[int]bool{} // introduced future → put seen
	intro := func(id uint64, state int) error {
		if strands[id] != unseen {
			return fmt.Errorf("strand %d introduced twice", id)
		}
		strands[id] = state
		return nil
	}
	running := func(id uint64) error {
		if s := strands[id]; s != live {
			return fmt.Errorf("strand %d acts in state %d", id, s)
		}
		return nil
	}
	for i := 0; ; i++ {
		ev, blk, err := st.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if blk != nil {
			if err := running(blk.Strand); err != nil {
				return fmt.Errorf("record %d, block: %w", i, err)
			}
			continue
		}
		if err := applyOrder(ev, strands, futs, intro, running); err != nil {
			return fmt.Errorf("record %d, %v: %w", i, ev.Op, err)
		}
	}
}

func applyOrder(ev *trace.Event, strands map[uint64]int, futs map[int]bool,
	intro func(uint64, int) error, running func(uint64) error) error {
	if ev.Op != trace.OpRoot {
		if err := running(ev.U); err != nil {
			return err
		}
	}
	switch ev.Op {
	case trace.OpRoot:
		if len(strands) != 0 {
			return fmt.Errorf("root after other events")
		}
		futs[0] = false
		return intro(ev.U, live)
	case trace.OpSpawn, trace.OpCreate:
		if ev.Op == trace.OpCreate {
			if _, ok := futs[ev.FutParent]; !ok {
				return fmt.Errorf("parent future %d not introduced", ev.FutParent)
			}
			if _, ok := futs[ev.Fut]; ok {
				return fmt.Errorf("future %d introduced twice", ev.Fut)
			}
			futs[ev.Fut] = false
		}
		for _, id := range []uint64{ev.A, ev.B} {
			if err := intro(id, live); err != nil {
				return err
			}
		}
		if ev.Placeholder > 0 {
			if err := intro(ev.Placeholder-1, waiting); err != nil {
				return err
			}
		}
	case trace.OpSync:
		if strands[ev.A] != waiting {
			return fmt.Errorf("sync strand %d in state %d", ev.A, strands[ev.A])
		}
		for _, c := range ev.Sinks {
			if strands[c] != returned {
				return fmt.Errorf("sink %d joined in state %d", c, strands[c])
			}
		}
		strands[ev.A] = live
	case trace.OpReturn:
		strands[ev.U] = returned
		return nil
	case trace.OpPut:
		if put, ok := futs[ev.Fut]; !ok || put {
			return fmt.Errorf("put of future %d (introduced %v, put before %v)", ev.Fut, ok, put)
		}
		futs[ev.Fut] = true
	case trace.OpGet:
		if !futs[ev.Fut] {
			return fmt.Errorf("get of future %d before its put", ev.Fut)
		}
		if err := intro(ev.A, live); err != nil {
			return err
		}
	}
	strands[ev.U] = ended
	return nil
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
