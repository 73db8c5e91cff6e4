package detect

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sforder/internal/sched"
)

// hammerPlan is what TestReportHammer's strands do: three phases, each a
// set of strands per worker, every strand a set of addresses of one kind —
// writes, then reads, then writes again. Every two strands are parallel
// and a phase starts when the last one ended, so the races on an address
// are a function of how many strands touched it in each phase, whatever
// the interleaving: with w1 first writers, r readers and w3 second
// writers, w1−1 in the first phase, r in the second if w1 > 0, and in the
// third w3−1 plus, from the first of them, the r readers and the last
// first-phase writer.
type hammerPlan struct {
	phases [3][][][]uint64 // phase, worker, strand: the addresses
	kinds  [3]AccessKind
	count  uint64
	racy   []uint64
	// did[id][addr] has bit kind set if strand id made that access.
	did map[uint64]map[uint64]uint8
}

func newHammerPlan(workers, strands int, seed int64) *hammerPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &hammerPlan{kinds: [3]AccessKind{AccessWrite, AccessRead, AccessWrite}, did: map[uint64]map[uint64]uint8{}}
	var touched [3]map[uint64]int
	id := uint64(1)
	for ph := range p.phases {
		touched[ph] = map[uint64]int{}
		p.phases[ph] = make([][][]uint64, workers)
		for g := range workers {
			for range strands {
				// A run over up to two pages and a few scattered slots,
				// three pages from address 0 so a zeroed record shows.
				set := map[uint64]bool{}
				lo := 3*pageSize + uint64(rng.Intn(3*pageSize))
				for a := lo; a < lo+uint64(rng.Intn(2*pageSize)) && a < 6*pageSize; a++ {
					set[a] = true
				}
				for range 6 {
					set[3*pageSize+uint64(rng.Intn(3*pageSize))] = true
				}
				addrs := make([]uint64, 0, len(set))
				for a := range set {
					addrs = append(addrs, a)
				}
				slices.Sort(addrs)
				p.did[id] = map[uint64]uint8{}
				for _, a := range addrs {
					touched[ph][a]++
					p.did[id][a] = 1 << p.kinds[ph]
				}
				p.phases[ph][g] = append(p.phases[ph][g], addrs)
				id++
			}
		}
	}
	for a := uint64(3 * pageSize); a < 6*pageSize; a++ {
		w1, r, w3 := uint64(touched[0][a]), uint64(touched[1][a]), uint64(touched[2][a])
		n := uint64(0)
		if w1 > 0 {
			n += w1 - 1 + r
		}
		if w3 > 0 {
			n += w3 - 1 + r
			if w1 > 0 {
				n++
			}
		}
		p.count += n
		if n > 0 {
			p.racy = append(p.racy, a)
		}
	}
	return p
}

// valid reports whether r is a whole record of a race the plan makes: two
// distinct strands that made the accesses it names at its address.
func (p *hammerPlan) valid(r Race) bool {
	return r.PrevStrand != r.CurStrand && r.PrevFuture == testFuture.ID && r.CurFuture == testFuture.ID &&
		p.did[r.PrevStrand][r.Addr]&(1<<r.Prev) != 0 && p.did[r.CurStrand][r.Addr]&(1<<r.Cur) != 0
}

// TestReportHammer has four workers flush strands that race on the same
// three pages, with the retained-record cap below, at and above a chunk
// boundary and at the default, with and without DedupByAddr. The race
// count and the racy set must be the plan's; the records as many as the
// cap and DedupByAddr let through, each a race the plan makes on a racy
// address; and a Races call made while the workers report must return
// only whole records (run it under -race).
func TestReportHammer(t *testing.T) {
	const workers, strands = 4, 6
	plan := newHammerPlan(workers, strands, 1)
	for _, maxRaces := range []int{1, 31, 32, 33, 256} {
		for _, byAddr := range []bool{false, true} {
			t.Run(fmt.Sprintf("cap=%d/dedup=%v", maxRaces, byAddr), func(t *testing.T) {
				h := NewHistory(Options{Reach: parallelReach{}, FastPath: true, MaxRaces: maxRaces, DedupByAddr: byAddr})
				done := make(chan struct{})
				var reader sync.WaitGroup
				reader.Add(1)
				go func() {
					defer reader.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						rs := h.Races()
						if len(rs) > maxRaces {
							t.Errorf("mid-run: %d records retained, cap %d", len(rs), maxRaces)
							return
						}
						for _, r := range rs {
							if !plan.valid(r) {
								t.Errorf("mid-run: a record no strand pair made: %+v", r)
								return
							}
						}
					}
				}()
				id := uint64(1)
				for ph, byWorker := range plan.phases {
					var wg sync.WaitGroup
					for _, ss := range byWorker {
						wg.Add(1)
						go func(first uint64, ss [][]uint64) {
							defer wg.Done()
							for k, addrs := range ss {
								s := newStrand(first + uint64(k))
								for i := 0; i < len(addrs); {
									n := 1 // a run goes in as a range, the rest one by one
									for i+n < len(addrs) && addrs[i+n] == addrs[i]+uint64(n) {
										n++
									}
									sched.KeepRange(s, addrs[i], n, plan.kinds[ph], h.ApplyPage)
									i += n
								}
								h.StrandClose(s)
							}
						}(id, ss)
						id += uint64(len(ss))
					}
					wg.Wait()
				}
				close(done)
				reader.Wait()

				if got := h.RaceCount(); got != plan.count {
					t.Errorf("RaceCount = %d, want %d", got, plan.count)
				}
				racy := h.RacyAddrs()
				if !slices.Equal(racy, plan.racy) {
					t.Errorf("RacyAddrs has %d addresses, want %d", len(racy), len(plan.racy))
				}
				retainable := int(plan.count)
				if byAddr {
					retainable = len(plan.racy)
				}
				rs := h.Races()
				if len(rs) != min(maxRaces, retainable) {
					t.Errorf("%d records retained, want %d", len(rs), min(maxRaces, retainable))
				}
				seen := map[uint64]bool{}
				for _, r := range rs {
					if _, ok := slices.BinarySearch(plan.racy, r.Addr); !ok || !plan.valid(r) {
						t.Fatalf("retained a record no strand pair made: %+v", r)
					}
					if byAddr && seen[r.Addr] {
						t.Fatalf("two records on %#x under DedupByAddr", r.Addr)
					}
					seen[r.Addr] = true
				}
			})
		}
	}
	if plan.count < 2*256 || len(plan.racy) < 256 {
		t.Fatalf("the plan makes %d races on %d addresses: too few to fill the largest cap", plan.count, len(plan.racy))
	}
}
