package comm

import (
	"fmt"
	"slices"
	"testing"
)

// handWrittenTree is the binomial reduce-and-broadcast loop as each
// caller wrote it out before BinomialTree (this copy is netmodel's),
// recording steps instead of sending: the oracle of TestBinomialTree.
func handWrittenTree(me, n int) []TreeStep {
	var steps []TreeStep
	round := func(mask int) int {
		r := 0
		for 1<<r < mask {
			r++
		}
		return r
	}
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			steps = append(steps, TreeStep{round(mask), SendUp, me &^ mask})
			break
		}
		if me|mask < n {
			steps = append(steps, TreeStep{round(mask), RecvAdd, me | mask})
		}
	}
	highest := 1
	for highest < n {
		highest <<= 1
	}
	start := highest
	if me != 0 {
		low := me & -me
		steps = append(steps, TreeStep{round(low), RecvResult, me &^ low})
		start = low
	}
	for mask := start >> 1; mask >= 1; mask >>= 1 {
		if me|mask < n && me&mask == 0 {
			steps = append(steps, TreeStep{round(mask), SendDown, me | mask})
		}
	}
	return steps
}

// TestBinomialTree checks the tree for 1..64 ranks: each rank's steps
// are those of the hand-written loop it replaced; every send in round r
// meets exactly one receive of the same round and direction at its
// peer, and every receive one send; and running the steps as messages
// leaves every rank with the host-side sum.  Ranging over the steps
// allocates nothing.
func TestBinomialTree(t *testing.T) {
	for n := 1; n <= 64; n++ {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			steps := make([][]TreeStep, n)
			for me := range steps {
				steps[me] = slices.Collect((BinomialTree{Me: me, N: n}).Steps)
				if want := handWrittenTree(me, n); !slices.Equal(steps[me], want) {
					t.Fatalf("rank %d: steps %v, hand-written loop %v", me, steps[me], want)
				}
			}

			// A message is keyed by its edge and round; the receive a send
			// meets is the opposite kind of the same direction.
			type msg struct {
				src, dst, round int
				down            bool
			}
			sends, recvs := map[msg]int{}, map[msg]int{}
			for me, ss := range steps {
				for _, s := range ss {
					switch s.Kind {
					case SendUp, SendDown:
						sends[msg{me, s.Peer, s.Round, s.Kind == SendDown}]++
					case RecvAdd, RecvResult:
						recvs[msg{s.Peer, me, s.Round, s.Kind == RecvResult}]++
					}
				}
			}
			for m, k := range sends {
				if k != 1 || recvs[m] != 1 {
					t.Errorf("%+v: sent %d times, received %d", m, k, recvs[m])
				}
			}
			for m, k := range recvs {
				if sends[m] == 0 {
					t.Errorf("%+v: received %d times, never sent", m, k)
				}
			}

			// Run the ranks as messages until none can move: every rank
			// must finish holding the sum of all contributions.
			sum, want := make([]float64, n), 0.0
			for me := range sum {
				sum[me] = float64(me*me + 1)
				want += sum[me]
			}
			pc, inFlight := make([]int, n), map[msg]float64{}
			for moved := true; moved; {
				moved = false
				for me := range steps {
					for pc[me] < len(steps[me]) {
						s := steps[me][pc[me]]
						if s.Kind == SendUp || s.Kind == SendDown {
							inFlight[msg{me, s.Peer, s.Round, s.Kind == SendDown}] = sum[me]
						} else {
							m := msg{s.Peer, me, s.Round, s.Kind == RecvResult}
							v, ok := inFlight[m]
							if !ok {
								break
							}
							delete(inFlight, m)
							if s.Kind == RecvAdd {
								v += sum[me]
							}
							sum[me] = v
						}
						pc[me]++
						moved = true
					}
				}
			}
			for me := range steps {
				if pc[me] != len(steps[me]) || sum[me] != want {
					t.Errorf("rank %d stopped at step %d of %d with sum %g, want %g", me, pc[me], len(steps[me]), sum[me], want)
				}
			}

			if allocs := testing.AllocsPerRun(10, func() {
				for me := 0; me < n; me++ {
					for s := range (BinomialTree{Me: me, N: n}).Steps {
						sum[me] += float64(s.Peer)
					}
				}
			}); allocs != 0 {
				t.Errorf("ranging over the steps allocates %v times", allocs)
			}
		})
	}
}
