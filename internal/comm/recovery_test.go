package comm_test

import (
	"errors"
	"testing"

	"hyades/internal/comm"
	"hyades/internal/des"
	"hyades/internal/units"
)

// TestNodeDownErrorIsPeerUnreachable: the cause that unwinds a surviving
// rank names who saw which node die, and when, and matches the library's
// unreachability sentinel — also through the interrupt that carries it.
func TestNodeDownErrorIsPeerUnreachable(t *testing.T) {
	cases := []struct {
		err  *comm.NodeDownError
		want string
	}{
		{&comm.NodeDownError{Observer: 2, Peer: 1, At: 5 * units.Microsecond},
			"comm: node 2 declared node 1 dead at " + (5 * units.Microsecond).String()},
		{&comm.NodeDownError{Observer: -1, Peer: 3, At: units.Millisecond},
			"comm: node 3 crashed and rejoined at " + units.Millisecond.String()},
	}
	for _, c := range cases {
		if got := c.err.Error(); got != c.want {
			t.Errorf("Error() = %q, want %q", got, c.want)
		}
		if !errors.Is(c.err, comm.ErrPeerUnreachable) {
			t.Errorf("%v does not match ErrPeerUnreachable", c.err)
		}
		if intr := (&des.Interrupt{Proc: "rank0", Cause: c.err}); !errors.Is(intr, comm.ErrPeerUnreachable) {
			t.Errorf("interrupt carrying %v does not match ErrPeerUnreachable", c.err)
		}
	}
}
