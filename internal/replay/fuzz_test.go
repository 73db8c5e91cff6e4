package replay

import (
	"bytes"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/engine"
	"sforder/internal/progen"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// recordProgram records generated program seed through engine.Run at the
// given worker count.
func recordProgram(tb testing.TB, seed int64, workers int) []byte {
	tb.Helper()
	p := progen.New(progen.Config{Seed: seed, MaxDepth: 3, MaxOps: 6, Addrs: 6})
	var buf bytes.Buffer
	if _, err := engine.Run(engine.Config{Detector: engine.SFOrder, Workers: workers, Record: &buf}, p.Main()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// againstOracle holds replay of a loaded capture, raw its bytes, to the
// oracle: loaded on the OM and on the DePa rebuild, streamed at one and two
// shards. On a capture the oracle accepts each
// must report its racy set; on one it rejects — the trace.Rebuild's
// life-cycle rule or an invalid SF-dag — each must reject too.
func againstOracle(t *testing.T, c *trace.Capture, raw []byte) {
	t.Helper()
	want, _, oracleErr := Oracle(c)
	for _, path := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"loaded, OM", func() (*Result, error) {
			return Run(c, Options{Workers: 2, Reach: core.SubstrateOM})
		}},
		{"loaded, DePa", func() (*Result, error) {
			return Run(c, Options{Workers: 2, Reach: core.SubstrateDePa})
		}},
		{"streamed, 1 shard", func() (*Result, error) {
			return RunStream(bytes.NewReader(raw), Options{Workers: 1})
		}},
		{"streamed, 2 shards", func() (*Result, error) {
			return RunStream(bytes.NewReader(raw), Options{Workers: 2})
		}},
	} {
		res, err := path.run()
		switch {
		case oracleErr != nil && err == nil:
			t.Fatalf("%s: replay accepted a capture the oracle rejects (%v): racy %v", path.name, oracleErr, res.RacyAddrs)
		case oracleErr == nil && err != nil:
			t.Fatalf("%s: replay rejected a capture the oracle accepts: %v", path.name, err)
		case oracleErr == nil && !slices.Equal(res.RacyAddrs, want):
			t.Fatalf("%s: racy %v, oracle %v", path.name, res.RacyAddrs, want)
		}
	}
}

// FuzzReplayAgainstOracle holds every replay path to the exhaustive oracle
// on captures no recorder produced (againstOracle). The seeds are 2-worker
// recordings of generated programs; the committed corpus (testdata/fuzz)
// holds hostile captures that break one rule of trace.Rebuild each, named
// for it.
func FuzzReplayAgainstOracle(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(recordProgram(f, seed, 2))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := trace.Load(bytes.NewReader(data))
		if err != nil || c.Strands > oracleMaxStrands || c.Entries > oracleMaxEntries {
			return
		}
		againstOracle(t, c, data)
	})
}

// record is one record of a capture, an event or a block.
type record struct {
	ev  *trace.Event
	blk *trace.AccessBlock
}

// records lists a capture's events and blocks in file order, as copies.
func records(c *trace.Capture) []record {
	var out []record
	for next := c.Cursor(); ; {
		ev, blk, err := next()
		switch {
		case err != nil:
			return out
		case ev != nil:
			ev := *ev
			ev.Sinks = slices.Clone(ev.Sinks)
			out = append(out, record{ev: &ev})
		default:
			out = append(out, record{blk: blk})
		}
	}
}

// rewrite writes records through a trace.Recorder, whatever they say.
func rewrite(recs []record) []byte {
	var buf bytes.Buffer
	r := trace.NewRecorder(&buf)
	s := func(id uint64) *sched.Strand { return &sched.Strand{ID: id} }
	ph := func(p uint64) *sched.Strand {
		if p == 0 {
			return nil
		}
		return s(p - 1)
	}
	fut := func(id int) *sched.FutureTask { return &sched.FutureTask{ID: id} }
	for _, rec := range recs {
		if b := rec.blk; b != nil {
			var addrs []uint64
			var kinds []detect.AccessKind
			for kind, set := range [2]*detect.SlotSet{&b.Reads, &b.Writes} {
				for w, word := range set {
					for ; word != 0; word &= word - 1 {
						addrs = append(addrs, b.Page<<detect.PageBits|uint64(w<<6|bits.TrailingZeros64(word)))
						kinds = append(kinds, detect.AccessKind(kind))
					}
				}
			}
			r.TapAccesses(s(b.Strand), addrs, kinds)
			continue
		}
		switch ev := rec.ev; ev.Op {
		case trace.OpRoot:
			r.OnRoot(s(ev.U))
		case trace.OpSpawn:
			r.OnSpawn(s(ev.U), s(ev.A), s(ev.B), ph(ev.Placeholder))
		case trace.OpCreate:
			f := &sched.FutureTask{ID: ev.Fut, Parent: fut(ev.FutParent)}
			r.OnCreate(s(ev.U), s(ev.A), s(ev.B), ph(ev.Placeholder), f)
		case trace.OpSync:
			sinks := make([]*sched.Strand, len(ev.Sinks))
			for i, id := range ev.Sinks {
				sinks[i] = s(id)
			}
			r.OnSync(s(ev.U), s(ev.A), sinks)
		case trace.OpReturn:
			r.OnReturn(s(ev.U))
		case trace.OpPut:
			r.OnPut(s(ev.U), fut(ev.Fut))
		case trace.OpGet:
			r.OnGet(s(ev.U), s(ev.A), fut(ev.Fut))
		}
	}
	r.Close()
	return buf.Bytes()
}

// mutate applies one or two structural edits to recs: an id retargeted,
// a sink dropped, two events of one op trading their acting strands, a
// record swapped with the next, dropped or repeated, or a block moved.
func mutate(rng *rand.Rand, recs []record, strands uint64, futures int) []record {
	id := func() uint64 { return uint64(rng.Int63n(int64(strands) + 1)) }
	for range 1 + rng.Intn(2) {
		i, j := rng.Intn(len(recs)), rng.Intn(len(recs))
		ev, blk := recs[i].ev, recs[i].blk
		switch rng.Intn(8) {
		case 0:
			if blk != nil {
				b := *blk
				b.Strand, recs[i].blk = id(), &b
				continue
			}
			ids := []*uint64{&ev.U, &ev.A, &ev.B, &ev.Placeholder}
			for k := range ev.Sinks {
				ids = append(ids, &ev.Sinks[k])
			}
			*ids[rng.Intn(len(ids))] = id()
		case 1:
			if ev != nil {
				*[]*int{&ev.Fut, &ev.FutParent}[rng.Intn(2)] = rng.Intn(futures + 1)
			}
		case 2:
			if ev != nil && len(ev.Sinks) > 0 {
				k := rng.Intn(len(ev.Sinks))
				ev.Sinks = slices.Delete(ev.Sinks, k, k+1)
			}
		case 3:
			if other := recs[j].ev; ev != nil && other != nil && ev.Op == other.Op {
				ev.U, other.U = other.U, ev.U
			}
		case 4:
			if i+1 < len(recs) {
				recs[i], recs[i+1] = recs[i+1], recs[i]
			}
		case 5:
			recs = slices.Delete(recs, i, i+1)
		case 6:
			recs = slices.Insert(recs, i, recs[j])
		case 7:
			if rec := recs[i]; blk != nil {
				recs = slices.Delete(recs, i, i+1)
				recs = slices.Insert(recs, rng.Intn(len(recs)+1), rec)
			}
		}
	}
	return recs
}

// TestMutatedCapturesAgainstOracle is the fuzz's structured twin: a byte
// mutation rarely keeps a capture loadable, so this edits the records of
// real recordings — ids, sinks, order — and re-encodes them, reaching the
// captures that load and break the life cycle only subtly, or not at all.
// Every replay path must stay the oracle's (againstOracle).
func TestMutatedCapturesAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	iters, accepted := 1500, 0
	if testing.Short() {
		iters = 300
	}
	for range iters {
		raw := recordProgram(t, rng.Int63n(300), 1+rng.Intn(2))
		c, err := trace.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		raw = rewrite(mutate(rng, records(c), c.Strands, c.Futures))
		if c, err = trace.Load(bytes.NewReader(raw)); err != nil {
			continue
		}
		if _, _, err := Oracle(c); err == nil {
			accepted++
		}
		againstOracle(t, c, raw)
	}
	if accepted < iters/4 {
		t.Fatalf("the oracle accepted %d of %d mutated captures; the edits test little", accepted, iters)
	}
}
