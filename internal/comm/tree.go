package comm

// BinomialTree is rank Me's place in the binomial reduce-and-broadcast
// tree over ranks 0..N-1, rooted at 0: the global sum of the Hyades
// fallback for a non-power-of-two node count, of the commodity
// interconnects, of the coupled model's components and of MPI-StarT.
// In round r of the reduce, a rank with bit r set sends its partial sum
// to the rank with that bit clear and is done reducing; a rank with bit
// r clear adds the partial of the rank with it set, if there is one.
// The broadcast retraces the rounds downwards.  Each caller ranges over
// Steps with its own send and receive; Steps is a method on a value, so
// the loop allocates nothing.
type BinomialTree struct{ Me, N int }

// TreeStep is one step of a rank in the tree.
type TreeStep struct {
	Round int // bit Round separates the rank from Peer
	Kind  StepKind
	Peer  int
}

// StepKind is what a rank does in one step of the tree.
type StepKind uint8

const (
	SendUp     StepKind = iota // send the partial sum to the parent
	RecvAdd                    // receive a child's partial sum and add it
	RecvResult                 // receive the total from the parent
	SendDown                   // send the total to a child
)

// Steps yields the rank's steps in order: the reduce rounds upwards, then
// the broadcast rounds downwards from the round that took its partial up
// (above the top round, for the root).
func (t BinomialTree) Steps(yield func(TreeStep) bool) {
	r := 0
	for ; 1<<r < t.N; r++ {
		bit := 1 << r
		if t.Me&bit != 0 {
			if !yield(TreeStep{r, SendUp, t.Me &^ bit}) || !yield(TreeStep{r, RecvResult, t.Me &^ bit}) {
				return
			}
			break
		}
		if t.Me|bit < t.N && !yield(TreeStep{r, RecvAdd, t.Me | bit}) {
			return
		}
	}
	for r--; r >= 0; r-- {
		if c := t.Me | 1<<r; c < t.N && !yield(TreeStep{r, SendDown, c}) {
			return
		}
	}
}
