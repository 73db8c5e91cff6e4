package replay

import (
	"fmt"
	"math/bits"

	"sforder/internal/dag"
	"sforder/internal/detect"
	"sforder/internal/oracle"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// The oracle's caps. Its closure takes strands² bits and its check is
// quadratic per location, so it refuses a capture past either.
const (
	oracleMaxStrands = 8192    // an 8 MiB closure
	oracleMaxEntries = 1 << 20 // access entries
)

// Oracle is the exhaustive verdict on a capture: it rebuilds the capture's
// dag through the trace.Rebuild every replay path uses, with a
// dag.Recorder as the tracer, validates it as an SF-dag (paper §2), and
// checks every conflicting pair of the capture's entries against its
// transitive closure. It returns the sorted racy addresses and the dag. A
// capture past the caps, one the rebuild rejects, or a dag that is not an
// SF-dag is an error.
func Oracle(c *trace.Capture) (racy []uint64, g *dag.Graph, err error) {
	if c.Strands > oracleMaxStrands || c.Entries > oracleMaxEntries {
		return nil, nil, fmt.Errorf("replay: oracle: %d strands and %d entries, past its caps of %d and %d",
			c.Strands, c.Entries, oracleMaxStrands, oracleMaxEntries)
	}
	rec, log := dag.NewRecorder(), oracle.NewLogger()
	access := [2]func(*sched.Strand, uint64){log.Read, log.Write}
	err = (&trace.Rebuild{}).Run(c, rec, func(s *sched.Strand, b *trace.AccessBlock) {
		for kind, set := range [2]*detect.SlotSet{&b.Reads, &b.Writes} {
			for w, word := range set {
				for ; word != 0; word &= word - 1 {
					access[kind](s, b.Page<<detect.PageBits|uint64(w<<6|bits.TrailingZeros64(word)))
				}
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	// NewClosure panics on a cycle; Validate reports it.
	if err := rec.G.Validate(); err != nil {
		return nil, nil, err
	}
	return log.RacyAddrs(rec), rec.G, nil
}
