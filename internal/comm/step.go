package comm

import (
	"fmt"
	"math"

	"hyades/internal/arctic"
	"hyades/internal/des"
	"hyades/internal/startx"
	"hyades/internal/units"
)

// opKind names one step of a primitive's program.
type opKind uint8

const (
	opDelay     opKind = iota // stall the processor for d
	opSend                    // PIO-send the payload w to node under tag
	opSendSum                 // PIO-send the running sum to node under tag
	opHandshake               // take the REQ or ACK matching key and drop it
	opAdd                     // take the partial sum matching key and add it
	opSet                     // take the total matching key and make it the sum
	opDMA                     // start the VI transfer of data to node under tag
	opVIWait                  // take the VI transfer matching key, from rank src, into xfer
	opShmPut                  // put the running sum into the shared mailbox sums
	opShmAdd                  // take a value from sums and add it
	opShmSet                  // take a value from sums and make it the sum
	opShmSend                 // put the slab data into the shared mailbox slabs
	opShmRecv                 // take a slab from slabs into xfer
)

// op is one step of a program; the fields its kind does not use are zero.
type op struct {
	kind  opKind
	d     units.Time
	node  int
	tag   int
	w     [2]uint32
	key   matchKey
	box   *des.Queue[startx.Message] // a PIO wait's match box, resolved when the op is built
	src   int
	data  []byte
	sums  *des.Mailbox[float64]
	slabs *des.Mailbox[[]byte]
}

// program is an endpoint's primitive in flight: its ops, the op at pc
// and where that op resumes, and the scratch state of the op.  It lives
// in the endpoint and its step function is bound once, so running a
// primitive allocates nothing.
type program struct {
	fn  func() bool // the endpoint's step method
	ops []op
	pc  int
	sub uint8 // where the op at pc resumes; 0 starts it

	sum    float64         // the global sum's running sum
	words  []uint32        // the payload of the PIO send in progress
	msg    startx.Message  // the matched PIO message, or the polled one
	polled bool            // the hardware poll found a message
	snap   uint64          // the delivery signal's generation before the poll
	xfer   startx.Transfer // the matched VI transfer, or the slab from shared memory
	vbox   *des.Queue[startx.Transfer]
}

// begin starts a new program in the endpoint's build buffer; add
// appends an op to it.
func (ep *HyadesEndpoint) begin()   { ep.ops = ep.ops[:0] }
func (ep *HyadesEndpoint) add(o op) { ep.ops = append(ep.ops, o) }

// waitOp is a PIO wait of the given kind for key, with its match box.
func (ep *HyadesEndpoint) waitOp(kind opKind, key matchKey) op {
	return op{kind: kind, key: key, box: ep.nc.pioMB(key)}
}

// run executes ops as one stretch of the process (des.Proc.Await).
func (ep *HyadesEndpoint) run(ops []op) {
	pr := &ep.prog
	pr.ops, pr.pc, pr.sub = ops, 0, 0
	ep.w.Proc.Await(pr.fn)
}

// waitName names the wait of the program a watchdog trip found parked
// (des.Proc.NameWaits): a PIO wait on the delivery signal or a VI wait
// on the hardware queue, by rank and what it waits for; "" for a park
// on a lock or a shared mailbox, which the park's facility names.
func (ep *HyadesEndpoint) waitName() string {
	pr := &ep.prog
	switch o := &pr.ops[pr.pc]; {
	case o.kind == opVIWait && pr.sub == viRecvWoke:
		return fmt.Sprintf("rank %d viWait(srcRank=%d) on node %d", ep.w.Rank, o.src, ep.w.Node.ID)
	case o.box != nil && pr.sub == pioSigWoke: // a PIO wait
		k := o.key
		return fmt.Sprintf("rank %d pioWait(class=%d srcNode=%d srcCPU=%d seq=%d)",
			ep.w.Rank, k.class, k.srcNode, k.srcCPU, k.seq)
	}
	return ""
}

// step is the program's step function: it runs ops until one blocks
// (false) or the program ends (true).
func (ep *HyadesEndpoint) step() bool {
	pr := &ep.prog
	for pr.pc < len(pr.ops) {
		if !ep.exec(&pr.ops[pr.pc]) {
			return false
		}
		pr.pc++
		pr.sub = 0
	}
	return true
}

// exec advances op o, reporting false when it has begun a block.  A
// send is its charge half, the stall, then its completion half.
func (ep *HyadesEndpoint) exec(o *op) bool {
	pr, p, niu := &ep.prog, ep.w.Proc, ep.w.Node.NIU
	switch o.kind {
	case opDelay:
		if pr.sub == 0 {
			pr.sub = 1
			return p.StepDelay(o.d)
		}
	case opSend, opSendSum:
		if pr.sub == 0 {
			w := ep.h.getWords()
			w[0], w[1] = o.w[0], o.w[1]
			if o.kind == opSendSum {
				bits := math.Float64bits(pr.sum)
				w[0], w[1] = uint32(bits>>32), uint32(bits)
			}
			pr.words, pr.sub = w, 1
			if !p.StepDelay(niu.ChargePIOSend(o.tag, w)) {
				return false
			}
		}
		niu.CompletePIOSend(o.node, o.tag, pr.words, arctic.Low)
	case opDMA:
		if pr.sub == 0 {
			pr.sub = 1
			if !p.StepDelay(niu.ChargeDMASend(o.tag, o.data)) {
				return false
			}
		}
		niu.CompleteDMASend(o.node, o.tag, o.data, arctic.Low)
	case opVIWait:
		return ep.viWait(o.key)
	case opShmPut:
		o.sums.Send(pr.sum)
	case opShmSend:
		o.slabs.Send(o.data)
	case opShmAdd, opShmSet:
		v, ok := recvStep(p, o.sums, &pr.sub)
		if !ok {
			return false
		}
		if o.kind == opShmAdd {
			pr.sum += v
		} else {
			pr.sum = v
		}
	case opShmRecv:
		v, ok := recvStep(p, o.slabs, &pr.sub)
		if !ok {
			return false
		}
		pr.xfer = startx.Transfer{Data: v}
	default:
		if !ep.pioWait(o) {
			return false
		}
		if o.kind != opHandshake {
			v := math.Float64frombits(uint64(pr.msg.Words[0])<<32 | uint64(pr.msg.Words[1]))
			if o.kind == opAdd {
				pr.sum += v
			} else {
				pr.sum = v
			}
		}
		ep.h.putWords(pr.msg.Words)
	}
	return true
}

// recvStep is Mailbox.Recv as a resumable op: the item, or false with p
// parked until a Send, after which the op calls it again.
func recvStep[T any](p *des.Proc, mb *des.Mailbox[T], sub *uint8) (T, bool) {
	if *sub != 0 {
		p.ParkEnd()
	}
	*sub = 1
	return mb.RecvStep(p)
}

// Where a PIO wait resumes (program.sub).
const (
	pioMatch    uint8 = iota // look in the match box; the wait starts here
	pioPull                  // take the pull lock, poll the hardware queue
	pioLockWoke              // woken for the pull lock
	pioPolled                // the poll's reads are paid
	pioSigWoke               // woken by the delivery signal
)

// pioWait takes the next PIO message matching o's key into msg.  The two
// SMP processors cooperate through the node's match boxes: whoever polls
// the hardware queue deposits messages that are not its own and signals
// the other CPU.  A successful poll charges the usual mmap reads;
// between arrivals the wait parks on the node's delivery signal rather
// than modelling every idle status read.  A wait starved there trips
// the engine watchdog, which names the rank and the exact match key it
// starved on (waitName), not just the shared signal.
func (ep *HyadesEndpoint) pioWait(o *op) bool {
	pr, p, nc := &ep.prog, ep.w.Proc, ep.nc
	for {
		switch pr.sub {
		case pioMatch:
			if o.box.Len() > 0 {
				pr.msg = o.box.Pop()
				return true
			}
			pr.snap, pr.sub = nc.pioSig.Seq(), pioPull
		case pioPull:
			if !nc.pioLock.AcquireStep(p) {
				pr.sub = pioLockWoke
				return false
			}
			if o.box.Len() > 0 {
				pr.msg = o.box.Pop()
				nc.pioLock.Release()
				return true
			}
			m, ok, d := ep.w.Node.NIU.PollPIO(arctic.Low)
			pr.msg, pr.polled, pr.sub = m, ok, pioPolled
			if !p.StepDelay(d) {
				return false
			}
		case pioLockWoke:
			p.ParkEnd()
			pr.sub = pioPull
		case pioPolled:
			nc.pioLock.Release()
			if !pr.polled {
				pr.sub = pioSigWoke
				if !nc.pioSig.WaitStep(p, pr.snap) {
					return false
				}
				pr.sub = pioMatch
				continue
			}
			if got := keyOfTag(pr.msg.Tag, pr.msg.Src); got != o.key {
				nc.pioMB(got).Push(pr.msg)
				nc.pioSig.Broadcast()
				pr.sub = pioMatch
				continue
			}
			return true
		case pioSigWoke:
			p.ParkEnd()
			pr.sub = pioMatch
		}
	}
}

// Where a VI wait resumes (program.sub).
const (
	viStart    uint8 = iota
	viMatch          // look in the match box
	viPull           // take the pull lock
	viLockWoke       // woken for the pull lock
	viRecv           // take the next transfer from the hardware queue
	viRecvWoke       // woken for it
)

// viWait takes the next bulk transfer matching key into xfer.  Unlike a
// control message, a transfer waited for is always already committed by
// the REQ/ACK handshake, so blocking on the hardware queue while holding
// the pull lock cannot deadlock; a queue that stays empty trips the
// engine watchdog, named by waitName.
func (ep *HyadesEndpoint) viWait(key matchKey) bool {
	pr, p, nc, niu := &ep.prog, ep.w.Proc, ep.nc, ep.w.Node.NIU
	for {
		switch pr.sub {
		case viStart:
			pr.vbox, pr.sub = nc.viMB(key), viMatch
		case viMatch:
			if pr.vbox.Len() > 0 {
				pr.xfer = pr.vbox.Pop()
				return true
			}
			pr.sub = viPull
		case viPull:
			if !nc.viLock.AcquireStep(p) {
				pr.sub = viLockWoke
				return false
			}
			if pr.vbox.Len() > 0 {
				pr.xfer = pr.vbox.Pop()
				nc.viLock.Release()
				return true
			}
			pr.sub = viRecv
		case viLockWoke:
			p.ParkEnd()
			pr.sub = viPull
		case viRecv:
			t, ok := niu.VIRecvStep(p)
			if !ok {
				pr.sub = viRecvWoke
				return false
			}
			nc.viLock.Release()
			got := keyOfTag(t.Tag, t.Src)
			got.class = clsExchData
			if got == key {
				pr.xfer = t
				return true
			}
			nc.viMB(got).Push(t)
			pr.sub = viMatch
		case viRecvWoke:
			p.ParkEnd()
			pr.sub = viRecv
		}
	}
}
