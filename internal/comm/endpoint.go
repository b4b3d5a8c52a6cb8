// Package comm implements the paper's application-specific
// communication library (§4): the two performance-critical primitives —
// exchange and global sum — plus the portable Endpoint interface the
// GCM code programs against.
//
// The paper's central software claim is that a small set of primitives
// tailored to the application ("it took less than one man-month to
// develop the two custom primitives") delivers most of the raw
// interconnect performance to the numerics.  Accordingly this package
// contains Hyades-specific implementations built directly on the
// StarT-X PIO and VI mechanisms; package netmodel provides alternative
// implementations over modelled Fast Ethernet, Gigabit Ethernet and
// Myrinet so that the same GCM code reproduces the Pfpp comparisons of
// Fig. 12.
//
// Every primitive is a fixed sequence of register accesses, DMA kicks,
// shared-memory hand-offs and waits, so each runs as one step function
// (des.Proc.Await, step.go): a short program of ops whose blocks are
// resumed on the dispatcher, with one switch into the process when the
// primitive is done.  Four rules keep that exact — the schedule cannot
// tell it from the process code it replaced:
//
//   - Every sequence number is consumed at the same point as before:
//     an op does the process form's engine operations in its order (a
//     send's charge half, the stall, then its completion half).
//   - Every interrupt boundary of the process form is a point where the
//     step stops and lets the process raise: each block an op begins
//     ends at a wake, and a wake with an interrupt pending switches in.
//   - A starved PIO or VI wait trips the engine watchdog with the same
//     Culprit, which the program gives it through des.Proc.NameWaits.
//   - A dead process's pending wake stays a no-op.
package comm

import (
	"hyades/internal/des"
	"hyades/internal/units"
)

// Block describes the memory layout of a halo slab so the library can
// charge realistic pack/unpack costs (and so message-per-row transports
// like the paper's MPI-over-Ethernet baseline can count messages).  A
// slab is Rows contiguous runs of RowBytes bytes each.
type Block struct {
	Rows     int
	RowBytes int
	// Cached marks slabs whose working set stays cache-resident between
	// exchanges (the 2-D fields of the DS phase); large 3-D fields swept
	// by the PS phase between exchanges are copied at miss rates.
	Cached bool
}

// Bytes returns the slab's total payload size.
func (b Block) Bytes() int { return b.Rows * b.RowBytes }

// Contiguous returns a single-run layout for n bytes.
func Contiguous(n int, cached bool) Block {
	return Block{Rows: 1, RowBytes: n, Cached: cached}
}

// Endpoint is one application process's handle on the communication
// system.  All methods may only be called from the worker's own
// simulated process.
type Endpoint interface {
	// Rank is the worker's dense index; N is the number of workers.
	Rank() int
	N() int

	// Exchange performs the bidirectional pairwise transfer at the core
	// of the halo-update primitive: it delivers send to the peer and
	// returns the peer's buffer.  Both sides must call Exchange with
	// each other's rank; layout describes the slab for cost modelling.
	Exchange(peer int, send []byte, layout Block) []byte

	// GlobalSum sums one float64 across all workers and returns the
	// total to every caller (§4.2).
	GlobalSum(x float64) float64

	// Barrier blocks until every worker arrives.
	Barrier()

	// Busy charges d of processor time (numerical computation).
	Busy(d units.Time)

	// Exec runs fn — a pure compute phase touching only this worker's
	// own model state, with modeled cost d known up front — and charges
	// d of processor time.  Implementations may execute fn on a host
	// worker pool while the simulation advances other activities; the
	// phase is always complete before Exec returns, and the virtual
	// schedule is identical to Busy(d) regardless of the worker count.
	Exec(d units.Time, fn func())

	// Now returns the current virtual time.
	Now() units.Time

	// Stats returns the endpoint's accumulated accounting.
	Stats() *Stats
}

// Stats accumulates per-worker accounting used by the performance
// analysis (Fig. 10's sustained rates, the Tcomm/Tcomp split of §5.3).
type Stats struct {
	ComputeTime  units.Time
	ExchangeTime units.Time
	GsumTime     units.Time
	BarrierTime  units.Time
	BytesSent    int64
	Exchanges    int64
	GlobalSums   int64
}

// CommTime returns total time spent in communication primitives.
func (s *Stats) CommTime() units.Time {
	return s.ExchangeTime + s.GsumTime + s.BarrierTime
}

// Serial is the degenerate single-worker endpoint used for serial model
// runs and unit tests of the numerics.  Exchange must not be called.
type Serial struct {
	Clock units.Time
	S     Stats
}

// Rank implements Endpoint.
func (s *Serial) Rank() int { return 0 }

// N implements Endpoint.
func (s *Serial) N() int { return 1 }

// Exchange implements Endpoint; a serial run has no neighbours.
func (s *Serial) Exchange(peer int, send []byte, layout Block) []byte {
	panic("comm: Exchange on a serial endpoint")
}

// GlobalSum implements Endpoint.
func (s *Serial) GlobalSum(x float64) float64 {
	s.S.GlobalSums++
	return x
}

// Barrier implements Endpoint.
func (s *Serial) Barrier() {}

// Busy implements Endpoint by advancing the serial clock.  A negative d
// panics with a *des.PastError, as on the simulated endpoints.
func (s *Serial) Busy(d units.Time) {
	if d < 0 {
		panic(&des.PastError{Call: "Busy", Delay: d, Now: s.Clock})
	}
	s.Clock += d
	s.S.ComputeTime += d
}

// Exec implements Endpoint: a serial run computes inline.
func (s *Serial) Exec(d units.Time, fn func()) {
	fn()
	s.Busy(d)
}

// Now implements Endpoint.
func (s *Serial) Now() units.Time { return s.Clock }

// Stats implements Endpoint.
func (s *Serial) Stats() *Stats { return &s.S }
