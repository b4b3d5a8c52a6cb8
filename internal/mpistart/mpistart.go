// Package mpistart models MPI-StarT (Husbands & Hoe, SC'98 — the
// paper's reference [18]): a general-purpose message-passing interface
// delivering the StarT-X network to portable applications.
//
// The paper's §6 argues that an application-specific cluster should
// *not* pay for such generality: "there is little reason to give up
// any performance for an API that is more general than required".
// This package exists to quantify that trade on the simulated
// machine: the same hardware mechanisms (PIO for eager messages, VI
// DMA for bulk), but wrapped in a portable layer that pays a per-call
// software tax (communicator dispatch, datatype handling, request
// bookkeeping) and uses the portable reduce-broadcast algorithm
// instead of the latency-optimal application-specific butterfly.  See
// BenchmarkAblationMPIvsCustom.
//
// The model supports one process per node (MPI-StarT's cluster mode).
package mpistart

import (
	"encoding/binary"
	"fmt"
	"math"

	"hyades/internal/arctic"
	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/des"
	"hyades/internal/startx"
	"hyades/internal/units"
)

// Overhead is the per-call software cost of the portable layer on each
// side of an operation, on top of the hardware costs.  MPI-StarT's
// published small-message latencies sit a few microseconds above the
// raw mechanisms; 2 us per side reproduces that class.
const Overhead = 2 * units.Microsecond

// eagerLimit is the largest message sent inline through PIO registers.
const eagerLimit = arctic.MaxPayloadBytes - 4 // one word carries the length

// Comm is one rank's communicator handle.
type Comm struct {
	w     *cluster.Worker
	niu   *startx.NIU
	size  int
	stash map[key]*des.Queue[[]byte]
}

type key struct {
	src, tag int
}

// New binds a communicator to a started worker.  The cluster must run
// one process per node.
func New(w *cluster.Worker, size int) (*Comm, error) {
	if w.CPU != 0 {
		return nil, fmt.Errorf("mpistart: one process per node only")
	}
	return &Comm{w: w, niu: w.Node.NIU, size: size, stash: make(map[key]*des.Queue[[]byte])}, nil
}

// Rank returns this process's rank (its node id).
func (c *Comm) Rank() int { return c.w.Rank }

// Send transmits data to dst with a tag (0..255).  Small messages go
// eagerly through PIO; larger ones stream through the VI DMA engine.
func (c *Comm) Send(dst, tag int, data []byte) {
	c.w.Proc.Delay(Overhead)
	if tag < 0 || tag > 0xff {
		panic(fmt.Sprintf("mpistart: tag %d out of range", tag))
	}
	if len(data) <= eagerLimit {
		words := make([]uint32, 0, arctic.MaxPayloadWords)
		words = append(words, uint32(len(data)))
		for off := 0; off < len(data); off += 4 {
			var w uint32
			for b := 0; b < 4 && off+b < len(data); b++ {
				w |= uint32(data[off+b]) << (8 * b)
			}
			words = append(words, w)
		}
		if len(words) < arctic.MinPayloadWords {
			words = append(words, 0)
		}
		c.niu.PIOSend(c.w.Proc, dst, tag, words, arctic.Low)
		return
	}
	c.niu.DMASend(c.w.Proc, dst, tag, data, arctic.Low)
}

// Recv blocks for the next message from src with the given tag.
func (c *Comm) Recv(src, tag int) []byte {
	c.w.Proc.Delay(Overhead)
	if q := c.stash[key{src, tag}]; q != nil && q.Len() > 0 {
		return q.Pop()
	}
	for {
		src2, tag2, data := c.pull()
		if src2 == src && tag2 == tag {
			return data
		}
		k := key{src2, tag2}
		if c.stash[k] == nil {
			c.stash[k] = new(des.Queue[[]byte])
		}
		c.stash[k].Push(data)
	}
}

// pull drains the next message from either hardware queue.  A single
// process per node consumes both queues, so blocking on PIO first and
// falling back to VI needs an arrival check loop.
func (c *Comm) pull() (src, tag int, data []byte) {
	for {
		if m, ok := c.niu.TryPIORecv(c.w.Proc, arctic.Low); ok {
			n := int(m.Words[0])
			buf := make([]byte, n)
			for i := 0; i < n; i++ {
				buf[i] = byte(m.Words[1+i/4] >> (8 * (i % 4)))
			}
			return m.Src, m.Tag, buf
		}
		if c.niu.VIPending() > 0 {
			t := c.niu.VIRecv(c.w.Proc)
			return t.Src, t.Tag, t.Data
		}
		// Nothing yet: poll again after a status-read interval (the
		// TryPIORecv above already charged one).
	}
}

// Allreduce sums one float64 across all ranks with the portable
// reduce-then-broadcast algorithm (2 log2 N sequential message
// latencies on the critical path, against the custom butterfly's
// log2 N); the broadcast half uses tag+1.
func (c *Comm) Allreduce(x float64, tag int) float64 {
	sum := x
	for s := range (comm.BinomialTree{Me: c.Rank(), N: c.size}).Steps {
		switch s.Kind {
		case comm.SendUp:
			c.Send(s.Peer, tag, encodeFloat(sum))
		case comm.RecvAdd:
			sum += decodeFloat(c.Recv(s.Peer, tag))
		case comm.RecvResult:
			sum = decodeFloat(c.Recv(s.Peer, tag+1))
		case comm.SendDown:
			c.Send(s.Peer, tag+1, encodeFloat(sum))
		}
	}
	return sum
}

// Barrier blocks until every rank arrives.
func (c *Comm) Barrier(tag int) { c.Allreduce(0, tag) }

func encodeFloat(v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return b[:]
}

func decodeFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
