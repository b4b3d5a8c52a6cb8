// Go-back-N reliable delivery for the StarT-X NIU.
//
// The paper's cluster assumes Arctic delivers every packet ("software
// sees error-free operation"); under fault injection that assumption
// breaks, so the NIU grows the recovery protocol a real deployment of
// this interconnect class pairs with its link-level CRC.  The design is
// classic go-back-N ARQ, kept entirely inside the NIU model:
//
//   - Every data packet carries a sequence number (arctic.RelHeader —
//     the simulator's out-of-band stand-in for sequence bits in the
//     packet tag space).  Streams are per (destination, priority):
//     Arctic guarantees FIFO delivery only within one priority of one
//     path, so the two priorities must not share a sequence space.
//   - The receiver accepts exactly the next expected sequence number,
//     acknowledges cumulatively with a small high-priority ACK packet,
//     suppresses duplicates, and drops out-of-order arrivals (the gap
//     will be refilled by retransmission).
//   - The sender holds unacknowledged packets, retransmits all of them
//     when a virtual-time timeout expires, doubles the timeout on every
//     consecutive expiry (capped), and after a fixed budget of
//     fruitless retries declares the peer unreachable — loudly, via
//     OnUnreachable / Engine.Fail, never by hanging.
//
// The layer runs exactly when the fabric injects faults: on a
// fault-free fabric it adds zero packets, zero events and zero virtual
// time, so fault-free runs are bit-identical to builds that predate it.
package startx

import (
	"fmt"

	"hyades/internal/arctic"
	"hyades/internal/des"
	"hyades/internal/units"
)

// The reliable channel's parameters: the initial retransmit timeout,
// the cap on its exponential backoff, the consecutive fruitless timeouts
// tolerated before the peer is declared unreachable, and the go-back-N
// window (unacknowledged packets per stream).
const (
	DefaultRelTimeout     = 500 * units.Microsecond
	DefaultRelBackoffCap  = 4 * units.Millisecond
	DefaultRelRetryBudget = 12
	DefaultRelWindow      = 64
)

// RelStats counts reliable-channel protocol events on one NIU.
type RelStats struct {
	DataPackets    int64 // sequenced data packets first-transmitted
	Retransmits    int64 // data packets re-injected after a timeout
	Timeouts       int64 // retransmit timer expiries
	AcksSent       int64 // cumulative ACK packets injected
	DupSuppressed  int64 // duplicate data packets discarded at the receiver
	GapDropped     int64 // out-of-order data packets discarded at the receiver
	CorruptDropped int64 // CRC-failed packets discarded by the reliable layer
}

// Add accumulates o into s, to sum the counters over NIUs.
func (s *RelStats) Add(o RelStats) {
	s.DataPackets += o.DataPackets
	s.Retransmits += o.Retransmits
	s.Timeouts += o.Timeouts
	s.AcksSent += o.AcksSent
	s.DupSuppressed += o.DupSuppressed
	s.GapDropped += o.GapDropped
	s.CorruptDropped += o.CorruptDropped
}

// UnreachableInfo diagnoses an exhausted retry budget.
type UnreachableInfo struct {
	Local    int             // this NIU's endpoint
	Peer     int             // the unresponsive destination endpoint
	Seq      uint64          // oldest unacknowledged sequence number
	Tag      int             // its packet tag (the software class bits)
	Pri      arctic.Priority // the stalled stream's priority
	Retries  int             // timeouts burned before giving up
	Stranded int             // packets still queued for the peer
}

func (u UnreachableInfo) String() string {
	return fmt.Sprintf("endpoint %d -> peer %d unreachable: seq %d (tag %#x, %s priority) unacked after %d retries, %d packets stranded",
		u.Local, u.Peer, u.Seq, u.Tag, u.Pri, u.Retries, u.Stranded)
}

// relStream is the sender-side state of one (destination, priority)
// go-back-N stream.
type relStream struct {
	niu     *NIU
	dst     int
	pri     arctic.Priority
	nextSeq uint64
	unacked des.Queue[*arctic.Packet] // in seq order; the front is the oldest
	backlog des.Queue[*arctic.Packet] // sequenced, waiting for window space
	timer   des.Timer
	retries int
	dead    bool // retry budget exhausted; stop transmitting
}

// relRxStream is the receiver-side state of one (source, priority)
// stream: the next expected sequence number.
type relRxStream struct {
	expected uint64
}

// relTx returns (creating on demand) the sender stream for (dst, pri).
// Indexed storage, not a map: this is the event path.
func (n *NIU) relTx(dst int, pri arctic.Priority) *relStream {
	if n.relTxStreams == nil {
		n.relTxStreams = make([]*relStream, 2*n.fab.Config().Endpoints)
	}
	i := 2*dst + int(pri)
	if n.relTxStreams[i] == nil {
		st := &relStream{niu: n, dst: dst, pri: pri}
		st.timer.Init(n.eng, st.onTimeout)
		n.relTxStreams[i] = st
	}
	return n.relTxStreams[i]
}

// relRx returns the receiver stream for (src, pri).
func (n *NIU) relRx(src int, pri arctic.Priority) *relRxStream {
	if n.relRxStreams == nil {
		n.relRxStreams = make([]relRxStream, 2*n.fab.Config().Endpoints)
	}
	return &n.relRxStreams[2*src+int(pri)]
}

// inject is the single funnel between the NIU transmit paths and the
// fabric.  With the reliable channel off it is a plain injection.
func (n *NIU) inject(pkt *arctic.Packet) {
	if n.down {
		// A transmit scheduled before the crash: the NIU died under it.
		return
	}
	pkt.Epoch = n.epoch
	if !n.reliable {
		n.fab.Inject(n.ep, pkt)
		return
	}
	st := n.relTx(pkt.Dst, pkt.Pri)
	pkt.Rel = &arctic.RelHeader{Seq: st.nextSeq, Chan: pkt.Pri}
	st.nextSeq++
	if st.dead || st.unacked.Len() >= DefaultRelWindow {
		st.backlog.Push(pkt)
		return
	}
	st.sendData(pkt)
}

// sendData transmits a sequenced packet for the first time.  The
// original is retained for retransmission; a pristine clone crosses the
// wire, as the NIU re-reads packet data from its queues on every send.
func (st *relStream) sendData(pkt *arctic.Packet) {
	st.unacked.Push(pkt)
	st.niu.Rel.DataPackets++
	st.niu.fab.Inject(st.niu.ep, pkt.Clone())
	if !st.timer.Active() {
		st.timer.Arm(st.rto())
	}
}

// rto returns the current retransmit timeout with exponential backoff.
func (st *relStream) rto() units.Time {
	d := DefaultRelTimeout << st.retries
	if d > DefaultRelBackoffCap || d <= 0 {
		d = DefaultRelBackoffCap
	}
	return d
}

// onTimeout fires when the oldest unacked packet has gone unanswered
// for a full RTO: retransmit the whole window (go-back-N), back off,
// and give up loudly once the retry budget is spent.
func (st *relStream) onTimeout() {
	n := st.niu
	if n.down {
		return
	}
	n.Rel.Timeouts++
	st.retries++
	if st.retries > DefaultRelRetryBudget {
		st.dead = true
		head := st.unacked.Front()
		info := UnreachableInfo{
			Local:    n.ep,
			Peer:     st.dst,
			Seq:      head.Rel.Seq,
			Tag:      int(head.Tag),
			Pri:      st.pri,
			Retries:  st.retries - 1,
			Stranded: st.unacked.Len() + st.backlog.Len(),
		}
		if n.OnUnreachable != nil {
			n.OnUnreachable(info)
			return
		}
		n.eng.Fail(fmt.Errorf("startx: %s", info))
		return
	}
	for i := 0; i < st.unacked.Len(); i++ {
		n.Rel.Retransmits++
		n.fab.Inject(n.ep, st.unacked.At(i).Clone())
	}
	st.timer.Arm(st.rto())
}

// onAck processes a cumulative acknowledgement: everything below
// ackSeq has been received.
func (st *relStream) onAck(ackSeq uint64) {
	progressed := false
	for st.unacked.Len() > 0 && st.unacked.Front().Rel.Seq < ackSeq {
		st.unacked.Pop()
		progressed = true
	}
	if !progressed {
		return
	}
	st.retries = 0
	st.timer.Cancel()
	// Window space freed: promote backlogged packets.
	for !st.dead && st.backlog.Len() > 0 && st.unacked.Len() < DefaultRelWindow {
		st.sendData(st.backlog.Pop())
	}
	if st.unacked.Len() > 0 && !st.timer.Active() {
		st.timer.Arm(st.rto())
	}
}

// relAdmit filters an arriving packet through the reliable layer.  It
// returns true if the packet should proceed to normal dispatch.
func (n *NIU) relAdmit(pkt *arctic.Packet) bool {
	if pkt.Corrupted() {
		// The NIU's CRC check rejects the packet outright; the sender's
		// retransmission recovers it.
		n.Rel.CorruptDropped++
		return false
	}
	rel := pkt.Rel
	if rel == nil {
		return true
	}
	if rel.Ack {
		n.relTx(pkt.Src, rel.Chan).onAck(rel.AckSeq)
		return false
	}
	rx := n.relRx(pkt.Src, rel.Chan)
	switch {
	case rel.Seq == rx.expected:
		rx.expected++
		n.sendAck(pkt.Src, rel.Chan, rx.expected)
		return true
	case rel.Seq < rx.expected:
		// Duplicate of something already delivered (a retransmission
		// raced the ACK).  Re-acknowledge so the sender's window moves.
		n.Rel.DupSuppressed++
		n.sendAck(pkt.Src, rel.Chan, rx.expected)
		return false
	default:
		// Gap: an earlier packet of the stream was lost.  Go-back-N
		// discards and waits for the sender to rewind.
		n.Rel.GapDropped++
		n.sendAck(pkt.Src, rel.Chan, rx.expected)
		return false
	}
}

// relAckPayload is the shared wire padding of every ACK packet.  The
// acknowledgement itself rides in the out-of-band RelHeader; the
// payload words are never read and nothing in the stack mutates packet
// payloads, so all ACKs can alias one zero buffer.
var relAckPayload = make([]uint32, arctic.MinPayloadWords)

// sendAck injects a cumulative acknowledgement for stream (dst's view:
// this endpoint, chan) as a minimal high-priority packet.  ACKs are
// themselves unsequenced and unprotected: a lost ACK is recovered by
// the next one, or by the duplicate re-ack after a retransmission.
func (n *NIU) sendAck(dst int, ch arctic.Priority, ackSeq uint64) {
	if n.down {
		return
	}
	ack := n.fab.AcquirePacket()
	ack.Pri = arctic.High
	ack.Payload = relAckPayload
	ack.Rel = &arctic.RelHeader{Ack: true, AckSeq: ackSeq, Chan: ch}
	ack.Epoch = n.epoch
	n.fab.RouteFor(ack, n.ep, dst)
	n.Rel.AcksSent++
	n.fab.Inject(n.ep, ack)
}
