// Package startx models the StarT-X PCI network interface unit
// (paper §2.3 and [Hoe 98]).
//
// StarT-X implements its message-passing mechanisms entirely in
// hardware; the model therefore has no firmware process, just event
// chains with the published costs.  All three of its mechanisms are
// reproduced; the first two are the ones the GCM code uses:
//
//   - PIO mode: a FIFO-based network abstraction in the style of the
//     CM-5 data network interface.  A message is two 32-bit header words
//     plus 2..22 payload words, moved to/from NIU registers by uncached
//     mmap accesses.  The cost of a send is one 8-byte header write plus
//     one write per 8 payload bytes; a receive is the same pattern with
//     reads.  With the §2.1 host constants this reproduces the paper's
//     estimates (0.36 us / 1.86 us for an 8-byte message) and, through
//     the fabric model, the LogP table of Fig. 2.
//
//   - VI (cacheable virtual interface) mode: transmit and receive queues
//     extended into host memory by DMA.  The processor writes messages
//     into a pinned, cacheable VI region and kicks the NIU's DMA engine
//     with mmap writes; the engine moves packet-sized quanta (up to 88
//     payload bytes plus an 8-byte header per 96-byte PCI burst) across
//     the bus, which yields the published 110 MByte/sec peak payload
//     rate (88/96 x 120 MB/s).
//
//   - Remote-memory mode: one-sided DMA puts into registered windows
//     of a remote node's pinned memory (see RemotePut), completion
//     observed by polling a cached flag.
package startx

import (
	"fmt"

	"hyades/internal/arctic"
	"hyades/internal/des"
	"hyades/internal/pci"
	"hyades/internal/units"
)

// Tag-space conventions.  The 11-bit packet tag carries a VI flag in
// the top bit; the low 10 bits are free for the software layer.
// Remote-memory packets reuse the tag as the window id and are marked
// out-of-band on the packet.
const (
	viTagFlag = 0x400
	MaxTag    = 0x3ff
	MaxWindow = 0x3ff
)

// Config holds NIU-internal pipeline latencies.  These are the only
// parameters not published directly in the paper; they are calibrated so
// that the simulated LogP characteristics land on Fig. 2 (see package
// comm's tests).
type Config struct {
	TxLatency units.Time // NIU transmit pipeline, register to first link
	RxLatency units.Time // NIU receive pipeline, last link to visible data

	// Reliable switches on the go-back-N reliable channel (see
	// reliable.go).  Off by default: a fault-free fabric delivers every
	// packet, and the paper's software layer assumes exactly that.
	Reliable bool
	// RelTimeout is the initial retransmit timeout (0 = default).
	RelTimeout units.Time
	// RelBackoffCap bounds the exponentially backed-off timeout.
	RelBackoffCap units.Time
	// RelRetryBudget is the number of consecutive fruitless timeouts
	// tolerated before the peer is declared unreachable.
	RelRetryBudget int
	// RelWindow is the go-back-N window: the maximum number of
	// unacknowledged packets per (destination, priority) stream.
	RelWindow int

	// Heartbeat and PeerLease configure NIU-level dead-peer detection
	// (see peer.go).  With Heartbeat > 0 a started monitor broadcasts a
	// small high-priority heartbeat packet every Heartbeat of virtual
	// time, and declares a peer dead once nothing — heartbeat or data —
	// has been heard from it for PeerLease.  Zero leaves detection off;
	// the cluster layer fills in defaults when node faults are enabled.
	Heartbeat units.Time
	PeerLease units.Time
}

// DefaultConfig returns the calibrated StarT-X pipeline latencies.
func DefaultConfig() Config {
	return Config{
		TxLatency: 250 * units.Nanosecond,
		RxLatency: 250 * units.Nanosecond,
	}
}

// Message is a received PIO-mode message.
type Message struct {
	Src     int
	Tag     int
	Words   []uint32
	Corrupt bool // the 1-bit catastrophic-failure status of §2.2
}

// Transfer is a completed VI-mode bulk transfer.
type Transfer struct {
	Src  int
	Tag  int
	Data []byte
}

// NIU is one StarT-X interface attached to an Arctic endpoint and to its
// host's PCI bus.
type NIU struct {
	eng *des.Engine
	bus *pci.Bus
	fab *arctic.Fabric
	ep  int
	cfg Config

	rxHi *des.Mailbox[Message]
	rxLo *des.Mailbox[Message]
	rxVI *des.Mailbox[Transfer]

	txQueue []*dmaJob

	// txIdle holds the transmit pump between bursts: its release event,
	// which runs pumpTx, is queued only while a burst is to follow (see
	// des.Slot).  freeRx, freeTx and freeDma are the delivery-job,
	// inject-job and DMA-job freelists: each job carries its own bound
	// fn, so the steady-state receive and transmit paths allocate
	// nothing.
	txIdle  des.Slot
	freeRx  []*rxJob
	freeTx  []*txJob
	freeDma []*dmaJob

	// CorruptSeen counts packets that arrived with a failed CRC; the
	// software layer observes this through Message.Corrupt.
	CorruptSeen int64

	// OnPIODeliver, if set, runs (in engine context) whenever a PIO
	// message lands in a receive queue.  The software layer uses it to
	// wake pollers without modelling every idle status read.
	OnPIODeliver func()

	// Rel counts reliable-channel protocol events (all zero unless
	// Config.Reliable is set).
	Rel RelStats

	// OnUnreachable, if set, observes an exhausted retry budget; when
	// nil the NIU fails the engine with the diagnostic instead.
	OnUnreachable func(UnreachableInfo)

	// relTxStreams / relRxStreams are the go-back-N per-stream states,
	// indexed 2*endpoint+priority (see reliable.go).
	relTxStreams []*relStream
	relRxStreams []relRxStream

	// windows holds the registered remote-memory regions.
	windows map[int]*rmemWindow

	// Node-failure state (see peer.go).  down marks a crashed NIU: it
	// transmits nothing and drops every arrival.  epoch is the
	// communication incarnation stamped on outgoing traffic; arrivals
	// from another epoch are pre-rollback stragglers and are dropped.
	// lastHeard/peerDead are the dead-peer detector's per-endpoint
	// lease state (slices, not maps: this is the event path).
	down      bool
	epoch     uint32
	lastHeard []units.Time
	peerDead  []bool
	hbTimer   *des.Timer
	lsTimer   *des.Timer

	// OnPeerDead, if set, observes (in engine context) a peer whose
	// lease expired; fired once per peer per monitoring epoch.
	OnPeerDead func(peer int)

	// DownDropped / StaleDropped / Heartbeats count node-failure
	// machinery events: arrivals discarded while down, stale-epoch
	// arrivals discarded after a rollback, heartbeat packets sent.
	DownDropped  int64
	StaleDropped int64
	Heartbeats   int64
}

// dmaJob is one queued VI-mode or remote-memory transmit; offset is
// the streaming cursor, winOff the rmem destination offset.
type dmaJob struct {
	dst, tag int
	data     []byte
	pri      arctic.Priority
	offset   int

	rmem   bool
	window int
	winOff int
}

// acquireDma pops a zeroed dmaJob from the freelist (or allocates one).
func (n *NIU) acquireDma() *dmaJob {
	if k := len(n.freeDma); k > 0 {
		j := n.freeDma[k-1]
		n.freeDma[k-1] = nil
		n.freeDma = n.freeDma[:k-1]
		return j
	}
	return &dmaJob{}
}

// releaseDma returns a finished job to the freelist.  Jobs dropped
// wholesale (Crash nils the queue) are simply left to the GC.
func (n *NIU) releaseDma(j *dmaJob) {
	*j = dmaJob{}
	n.freeDma = append(n.freeDma, j)
}

// popTxJob removes and returns the head of the transmit queue without
// shedding the slice's capacity.
func (n *NIU) popTxJob() *dmaJob {
	j := n.txQueue[0]
	k := copy(n.txQueue, n.txQueue[1:])
	n.txQueue[k] = nil
	n.txQueue = n.txQueue[:k]
	return j
}

// txJob is a scheduled fabric injection.  Each job owns a fn bound to
// itself once, so arming a TxLatency delay schedules no closure.
type txJob struct {
	n   *NIU
	pkt *arctic.Packet
	fn  func()
}

func (j *txJob) run() {
	pkt := j.pkt
	j.pkt = nil
	j.n.freeTx = append(j.n.freeTx, j)
	j.n.inject(pkt)
}

// scheduleInject arms a packet injection d from now via the job pool.
func (n *NIU) scheduleInject(d units.Time, pkt *arctic.Packet) {
	var j *txJob
	if k := len(n.freeTx); k > 0 {
		j = n.freeTx[k-1]
		n.freeTx[k-1] = nil
		n.freeTx = n.freeTx[:k-1]
	} else {
		j = &txJob{n: n}
		j.fn = j.run
	}
	j.pkt = pkt
	n.eng.Schedule(d, j.fn)
}

// rxJob is a scheduled receive-side delivery: a PIO message headed for
// a mailbox, a completed VI transfer, or a remote-memory landing.  The
// delivered packet's fields are captured eagerly — the fabric reclaims
// pooled packets as soon as the receive handler returns, so nothing
// here may hold a *Packet across the RxLatency delay.
type rxJob struct {
	n    *NIU
	kind int8 // rxPIO, rxVI or rxRmem
	hi   bool
	msg  Message
	xfer Transfer

	window, offset int
	data           []byte

	fn func()
}

const (
	rxPIO = int8(iota)
	rxVI
	rxRmem
)

func (n *NIU) acquireRx() *rxJob {
	if k := len(n.freeRx); k > 0 {
		j := n.freeRx[k-1]
		n.freeRx[k-1] = nil
		n.freeRx = n.freeRx[:k-1]
		return j
	}
	j := &rxJob{n: n}
	j.fn = j.run
	return j
}

func (j *rxJob) run() {
	n := j.n
	kind, hi := j.kind, j.hi
	msg, xfer := j.msg, j.xfer
	window, offset, data := j.window, j.offset, j.data
	j.msg, j.xfer, j.data = Message{}, Transfer{}, nil
	n.freeRx = append(n.freeRx, j)
	switch kind {
	case rxPIO:
		if hi {
			n.rxHi.Send(msg)
		} else {
			n.rxLo.Send(msg)
		}
		if n.OnPIODeliver != nil {
			n.OnPIODeliver()
		}
	case rxVI:
		n.rxVI.Send(xfer)
	case rxRmem:
		n.completeRemotePut(window, offset, data)
	}
}

// New attaches a NIU for endpoint ep to fabric fab and bus.
func New(e *des.Engine, bus *pci.Bus, fab *arctic.Fabric, ep int, cfg Config) *NIU {
	if cfg.Reliable {
		if cfg.RelTimeout <= 0 {
			cfg.RelTimeout = DefaultRelTimeout
		}
		if cfg.RelBackoffCap <= 0 {
			cfg.RelBackoffCap = DefaultRelBackoffCap
		}
		if cfg.RelRetryBudget <= 0 {
			cfg.RelRetryBudget = DefaultRelRetryBudget
		}
		if cfg.RelWindow <= 0 {
			cfg.RelWindow = DefaultRelWindow
		}
	}
	n := &NIU{
		eng: e, bus: bus, fab: fab, ep: ep, cfg: cfg,
		rxHi: des.NewMailbox[Message](e, fmt.Sprintf("niu%d.rxHi", ep)),
		rxLo: des.NewMailbox[Message](e, fmt.Sprintf("niu%d.rxLo", ep)),
		rxVI: des.NewMailbox[Transfer](e, fmt.Sprintf("niu%d.rxVI", ep)),
	}
	n.txIdle.Init(e, n.pumpTx)
	fab.Attach(ep, n.receive)
	return n
}

// Endpoint returns the NIU's Arctic endpoint number.
func (n *NIU) Endpoint() int { return n.ep }

// Bus returns the host PCI bus the NIU is attached to.
func (n *NIU) Bus() *pci.Bus { return n.bus }

// pioAccesses returns the number of 8-byte mmap accesses needed to move
// a message with the given payload through the register interface: one
// for the header pair plus one per 8 payload bytes.
func pioAccesses(payloadWords int) int {
	return 1 + (payloadWords*4+7)/8
}

// PIOSendCost returns the processor overhead Os of a PIO send.
func (n *NIU) PIOSendCost(payloadWords int) units.Time {
	return units.Time(pioAccesses(payloadWords)) * n.bus.Config().MMapWriteLatency
}

// PIORecvCost returns the processor overhead Or of a PIO receive.
func (n *NIU) PIORecvCost(payloadWords int) units.Time {
	return units.Time(pioAccesses(payloadWords)) * n.bus.Config().MMapReadLatency
}

// PIOSend transmits a PIO-mode message, stalling the calling processor
// for the mmap-write overhead.  The payload must be 2..22 words.
// Ownership of words transfers to the NIU (the register writes consume
// it); callers must pass a buffer they will not mutate afterwards.
func (n *NIU) PIOSend(p *des.Proc, dst int, tag int, words []uint32, pri arctic.Priority) {
	if len(words) < arctic.MinPayloadWords || len(words) > arctic.MaxPayloadWords {
		panic(fmt.Sprintf("startx: PIO payload %d words", len(words)))
	}
	if tag < 0 || tag > MaxTag {
		panic(fmt.Sprintf("startx: tag %d out of range", tag))
	}
	n.bus.MMapWriteN(p, pioAccesses(len(words)))
	pkt := n.fab.AcquirePacket()
	pkt.Pri = pri
	pkt.Tag = uint16(tag)
	pkt.Payload = words
	n.fab.RouteFor(pkt, n.ep, dst)
	n.scheduleInject(n.cfg.TxLatency, pkt)
}

// PIORecv blocks until a PIO message of the given priority is available,
// then stalls the calling processor for the mmap-read overhead and
// returns the message.  The first header read doubles as the
// queue-not-empty check, so no separate status poll is charged.
func (n *NIU) PIORecv(p *des.Proc, pri arctic.Priority) Message {
	mb := n.rxLo
	if pri == arctic.High {
		mb = n.rxHi
	}
	m := mb.Recv(p)
	n.bus.MMapReadN(p, pioAccesses(len(m.Words)))
	return m
}

// TryPIORecv polls the receive queue without blocking.  A successful
// poll charges the read overhead; an empty poll charges one status read.
func (n *NIU) TryPIORecv(p *des.Proc, pri arctic.Priority) (Message, bool) {
	mb := n.rxLo
	if pri == arctic.High {
		mb = n.rxHi
	}
	m, ok := mb.TryRecv()
	if !ok {
		n.bus.MMapRead(p)
		return Message{}, false
	}
	n.bus.MMapReadN(p, pioAccesses(len(m.Words)))
	return m, true
}

// DMASend queues a VI-mode bulk transfer of data to dst.  The caller is
// stalled only for the DMA-invocation cost (descriptor plus doorbell
// writes); the transfer itself proceeds asynchronously at the PCI DMA
// rate, one 96-byte burst (8-byte header + up to 88 payload bytes) per
// packet.
func (n *NIU) DMASend(p *des.Proc, dst int, tag int, data []byte, pri arctic.Priority) {
	if tag < 0 || tag > MaxTag {
		panic(fmt.Sprintf("startx: tag %d out of range", tag))
	}
	if len(data) == 0 {
		panic("startx: empty DMA transfer")
	}
	n.bus.MMapWriteN(p, 2)
	j := n.acquireDma()
	j.dst, j.tag, j.data, j.pri = dst, tag, data, pri
	n.txQueue = append(n.txQueue, j)
	if !n.txIdle.Await() {
		n.pumpTx()
	}
}

// pumpTx moves the next packet quantum of the transmit queue's head job
// across the PCI bus and into the fabric, then holds the pump until the
// burst ends — re-arming itself only if more is queued by then.
func (n *NIU) pumpTx() {
	if n.down || len(n.txQueue) == 0 {
		return
	}
	job := n.txQueue[0]
	chunk := len(job.data) - job.offset
	if chunk > arctic.MaxPayloadBytes {
		chunk = arctic.MaxPayloadBytes
	}
	job.offset += chunk
	final := job.offset == len(job.data)
	_, end := n.bus.DMA(n.eng.Now(), chunk+arctic.HeaderBytes)
	words := (chunk + 3) / 4
	if words < arctic.MinPayloadWords {
		words = arctic.MinPayloadWords
	}
	pkt := n.fab.AcquirePacket()
	pkt.Pri = job.pri
	pkt.Tag = uint16(job.tag | viTagFlag)
	pkt.BulkWords = words
	pkt.Final = final
	pkt.Rmem = job.rmem
	if final {
		pkt.Bulk = job.data
		pkt.RmemOffset = job.winOff
	}
	dst := job.dst
	if final {
		n.popTxJob()
		n.releaseDma(job)
	}
	n.fab.RouteFor(pkt, n.ep, dst)
	inject := end - n.eng.Now() + n.cfg.TxLatency
	n.scheduleInject(inject, pkt)
	n.txIdle.Hold(end-n.eng.Now(), len(n.txQueue) > 0)
}

// VIRecv blocks until a completed bulk transfer is available and returns
// it.  Polling the cacheable VI region is a cached memory access, so no
// mmap cost is charged here; the comm layer charges its own copy-out.
func (n *NIU) VIRecv(p *des.Proc) Transfer {
	return n.rxVI.Recv(p)
}

// VIRecvDeadline is VIRecv with a virtual-time bound; ok is false if
// the deadline elapsed with no completed transfer.
func (n *NIU) VIRecvDeadline(p *des.Proc, d units.Time) (Transfer, bool) {
	return n.rxVI.RecvDeadline(p, d)
}

// VIPending reports the number of completed transfers awaiting pickup.
func (n *NIU) VIPending() int { return n.rxVI.Len() }

// receive is the fabric delivery handler: it dispatches packets to the
// PIO queues or runs the VI receive DMA.
func (n *NIU) receive(pkt *arctic.Packet) {
	if pkt.HB {
		// Heartbeats prove liveness across epochs and are never
		// delivered to software; a downed NIU hears nothing.
		if !n.down && !pkt.Corrupted() {
			n.noteHeard(pkt.Src)
		}
		return
	}
	if n.down {
		n.DownDropped++
		return
	}
	if n.lastHeard != nil && !pkt.Corrupted() {
		n.noteHeard(pkt.Src)
	}
	if n.cfg.Reliable && pkt.Epoch != n.epoch {
		// A straggler from before a recovery rollback: the reliable
		// streams it belongs to no longer exist.  Dropping it (ACKs
		// included) keeps the fresh epoch's sequence spaces clean.
		n.StaleDropped++
		return
	}
	if pkt.Corrupted() {
		n.CorruptSeen++
	}
	if n.cfg.Reliable && !n.relAdmit(pkt) {
		return
	}
	if pkt.Tag&viTagFlag != 0 {
		// VI path: DMA the quantum into the VI region; the transfer
		// completes (becomes visible to software) when the final
		// packet's burst lands.
		_, end := n.bus.DMA(n.eng.Now(), pkt.PayloadBytes()+arctic.HeaderBytes)
		if pkt.Final {
			j := n.acquireRx()
			if pkt.Rmem {
				j.kind = rxRmem
				j.window = int(pkt.Tag) &^ viTagFlag
				j.offset = pkt.RmemOffset
				j.data = pkt.Bulk
			} else {
				j.kind = rxVI
				j.xfer = Transfer{Src: pkt.Src, Tag: int(pkt.Tag &^ viTagFlag), Data: pkt.Bulk}
			}
			n.eng.ScheduleAt(end+n.cfg.RxLatency, j.fn)
		}
		return
	}
	j := n.acquireRx()
	j.kind = rxPIO
	j.hi = pkt.Pri == arctic.High
	j.msg = Message{Src: pkt.Src, Tag: int(pkt.Tag), Words: pkt.Payload, Corrupt: pkt.Corrupted()}
	n.eng.Schedule(n.cfg.RxLatency, j.fn)
}

// ---- Remote-memory mechanism ----
//
// StarT-X's third message-passing mechanism [Hoe 98] is a one-sided
// remote-memory operation: the initiator's DMA engine moves a block
// directly into a window of the target node's pinned memory, with no
// receiving process involved; completion is observed by polling a
// cached flag.  The GCM's primitives do not use it (the paper's
// exchange is built on VI mode), but the mechanism is part of the NIU
// and is exercised by the tests and available for extensions.

// rmemWindow is one registered remote-memory region.
type rmemWindow struct {
	data    []byte
	version int64
}

// RegisterWindow exposes size bytes of this node's pinned memory as
// remote-memory window id, writable by remote Put operations.
func (n *NIU) RegisterWindow(id, size int) {
	if n.windows == nil {
		n.windows = make(map[int]*rmemWindow)
	}
	n.windows[id] = &rmemWindow{data: make([]byte, size)}
}

// Window returns the current contents and version counter of a local
// window.  Reading it is a cached memory access (no cost charged);
// the version increments once per completed remote Put.
func (n *NIU) Window(id int) ([]byte, int64) {
	w := n.windows[id]
	if w == nil {
		return nil, 0
	}
	return w.data, w.version
}

// RemotePut writes data into (window, offset) on the destination node,
// one-sided: the caller pays only the DMA-invocation cost and the
// transfer streams at the VI rate; the remote processor is never
// involved.  Delivery order with respect to other Puts between the
// same pair is FIFO.
func (n *NIU) RemotePut(p *des.Proc, dst, window, offset int, data []byte, pri arctic.Priority) {
	if len(data) == 0 {
		panic("startx: empty RemotePut")
	}
	if window < 0 || window > MaxWindow {
		panic(fmt.Sprintf("startx: window %d out of range", window))
	}
	n.bus.MMapWriteN(p, 2)
	n.txQueue = append(n.txQueue, &dmaJob{
		dst: dst, tag: window, data: data, pri: pri,
		rmem: true, window: window, winOff: offset,
	})
	if !n.txIdle.Await() {
		n.pumpTx()
	}
}

// completeRemotePut lands a finished Put in the local window.
func (n *NIU) completeRemotePut(window, offset int, data []byte) {
	w := n.windows[window]
	if w == nil {
		return // unregistered window: the hardware drops the write
	}
	copy(w.data[min(offset, len(w.data)):], data)
	w.version++
}
