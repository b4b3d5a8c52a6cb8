package comm

import (
	"fmt"
	"math"

	"hyades/internal/arctic"
	"hyades/internal/cluster"
	"hyades/internal/des"
	"hyades/internal/startx"
	"hyades/internal/units"
)

// HyadesConfig holds the software-layer cost parameters of the custom
// primitives.  The hardware costs (mmap accesses, DMA rates, link and
// router latencies) live in the pci/startx/arctic configs; what remains
// here is the cost of the thin software layer itself, calibrated so the
// stand-alone primitive benchmarks reproduce §4.1/§4.2:
//
//   - exchange overhead ~8.6 us per transfer and 110 MB/s peak,
//     giving Fig. 7's perceived-bandwidth curve;
//   - global sums of 4.0/8.3/12.8/18.2 us for 2/4/8/16 ways;
//   - texchxy ~115 us, texchxyz ~1640 us (atm) / ~4573 us (ocean) for
//     the Fig. 11 model parameters.
type HyadesConfig struct {
	// PackRowCached/PackRowUncached charge per contiguous run copied
	// while packing or unpacking a halo slab.  DS-phase 2-D slabs stay
	// cache resident; PS-phase 3-D slabs are copied at miss rates.
	PackRowCached   units.Time
	PackRowUncached units.Time

	// GsumRoundCPU is the software cost per butterfly round (tag
	// matching, accumulate, loop).
	GsumRoundCPU units.Time

	// SetupCost is the per-transfer software setup beyond the REQ/ACK
	// round trip (descriptor construction, VI-region bookkeeping).
	SetupCost units.Time

	// SlaveStageBandwidth models the extra shared-memory staging that
	// slave processors pay when the master's NIU moves their data
	// (paper: slave-to-slave exchange bandwidth ~30% below
	// master-to-master).
	SlaveStageBandwidth units.Bandwidth
}

// DefaultHyadesConfig returns the calibrated software costs.
func DefaultHyadesConfig() HyadesConfig {
	return HyadesConfig{
		PackRowCached:       50 * units.Nanosecond,
		PackRowUncached:     650 * units.Nanosecond,
		GsumRoundCPU:        400 * units.Nanosecond,
		SetupCost:           200 * units.Nanosecond,
		SlaveStageBandwidth: 512 * units.MBps,
	}
}

// Tag-space encoding: class(3) | srcCPU(1) | dstCPU(1) | seq(5), within
// the 10 user bits the NIU exposes.
const (
	clsGsum     = 1
	clsExchReq  = 2
	clsExchAck  = 3
	clsExchData = 4

	tagClassShift  = 7
	tagSrcCPUShift = 6
	tagDstCPUShift = 5
	tagSeqMask     = 0x1f
)

func encodeTag(class, srcCPU, dstCPU, seq int) int {
	return class<<tagClassShift | srcCPU<<tagSrcCPUShift | dstCPU<<tagDstCPUShift | seq&tagSeqMask
}

// matchKey identifies a logical message stream at a node: who sent it,
// which local CPU it is for, and what protocol step it belongs to.
type matchKey struct {
	class   int
	srcNode int
	srcCPU  int
	dstCPU  int
	seq     int
}

func keyOfTag(tag, srcNode int) matchKey {
	return matchKey{
		class:   tag >> tagClassShift & 0x7,
		srcNode: srcNode,
		srcCPU:  tag >> tagSrcCPUShift & 1,
		dstCPU:  tag >> tagDstCPUShift & 1,
		seq:     tag & tagSeqMask,
	}
}

// nodeComm is the per-SMP shared state of the communication library.
type nodeComm struct {
	pioLock *des.Semaphore // one puller at a time on the PIO rx queue
	viLock  *des.Semaphore // one puller at a time on the VI rx queue
	pioSig  *des.Signal    // fires on PIO deliveries and stash deposits
	pioBox  map[matchKey]*des.Mailbox[startx.Message]
	viBox   map[matchKey]*des.Mailbox[startx.Transfer]

	// Mix-mode global sum rendezvous (§4.2).
	partial *des.Mailbox[float64]
	results []*des.Mailbox[float64] // indexed by CPU

	// Intra-SMP exchange staging, keyed by (srcCPU, dstCPU).
	shm map[[2]int]*des.Mailbox[[]byte]
}

// Hyades is the communication library instance for one cluster.
type Hyades struct {
	cl    *cluster.Cluster
	cfg   HyadesConfig
	nodes []*nodeComm
	rec   *Recovery

	// words pools the two-word control payloads (gsum partials, exchange
	// REQ/ACK handshakes).  PIOSend transfers payload ownership to the
	// NIU and the receive path hands the same backing array to the
	// matching pioWait, so the waiter returns the slice here once it has
	// extracted the fields.  The engine baton serializes every process,
	// so the pool needs no lock and its reuse order is deterministic.
	// Reliable-mode retransmission may clone a packet whose retained
	// payload was already recycled and rewritten; that is safe because
	// duplicates are dropped by sequence number before any payload read,
	// and the clone re-Seals so its CRC is self-consistent.
	words [][]uint32
}

// getWords pops a 2-word payload buffer from the pool.
func (h *Hyades) getWords() []uint32 {
	if k := len(h.words); k > 0 {
		w := h.words[k-1]
		h.words[k-1] = nil
		h.words = h.words[:k-1]
		return w
	}
	return make([]uint32, 2)
}

// putWords returns a consumed control payload to the pool.
func (h *Hyades) putWords(w []uint32) {
	if cap(w) < 2 {
		return
	}
	h.words = append(h.words, w[:2])
}

// NewHyades builds the library over an assembled cluster.  Mix-mode
// supports the Hyades hardware's two processors per SMP.
func NewHyades(cl *cluster.Cluster, cfg HyadesConfig) (*Hyades, error) {
	if cl.Cfg.ProcsPerNode > 2 {
		return nil, fmt.Errorf("comm: mix-mode supports at most 2 processors per SMP, got %d", cl.Cfg.ProcsPerNode)
	}
	h := &Hyades{cl: cl, cfg: cfg}
	for _, nd := range cl.Nodes {
		nc := &nodeComm{
			pioLock: des.NewSemaphore(cl.Eng, fmt.Sprintf("node%d.piolock", nd.ID), 1),
			viLock:  des.NewSemaphore(cl.Eng, fmt.Sprintf("node%d.vilock", nd.ID), 1),
			pioSig:  des.NewSignal(cl.Eng, fmt.Sprintf("node%d.piosig", nd.ID)),
			pioBox:  make(map[matchKey]*des.Mailbox[startx.Message]),
			viBox:   make(map[matchKey]*des.Mailbox[startx.Transfer]),
			partial: des.NewMailbox[float64](cl.Eng, "gsum.partial"),
			shm:     make(map[[2]int]*des.Mailbox[[]byte]),
		}
		for c := 0; c < cl.Cfg.ProcsPerNode; c++ {
			nc.results = append(nc.results, des.NewMailbox[float64](cl.Eng, "gsum.result"))
		}
		nd.NIU.OnPIODeliver = nc.pioSig.Broadcast
		// An exhausted retransmit budget stops the run with a typed
		// error instead of leaving the peer's receive parked forever —
		// unless the crash-recovery controller recognizes the stalled
		// stream as collateral of a node crash it is already rolling
		// back, in which case it unwinds the sender instead.
		nodeID := nd.ID
		nd.NIU.OnUnreachable = func(u startx.UnreachableInfo) {
			if h.rec != nil && h.rec.unreachable(nodeID, u) {
				return
			}
			cl.Eng.Fail(unreachableError(cl.Cfg.ProcsPerNode, u))
		}
		h.nodes = append(h.nodes, nc)
	}
	if cl.Cfg.Fault.NodesEnabled() {
		h.rec = newRecovery(h)
		cl.OnNodeCrash = h.rec.nodeCrashed
		cl.OnNodeRestart = h.rec.nodeRestarted
		for _, nd := range cl.Nodes {
			nodeID := nd.ID
			nd.NIU.OnPeerDead = func(peer int) { h.rec.peerDead(nodeID, peer) }
			nd.NIU.StartPeerMonitor()
		}
	}
	return h, nil
}

// Recovery returns the crash-recovery controller.  A fault plan that
// crashes nodes attaches one at construction; otherwise attach asks
// for one on a cluster with nothing to detect — a checkpointing run
// still wants the rendezvous and the committed-checkpoint store, and
// gets no heartbeat traffic.  Call it before the simulation runs.
func (h *Hyades) Recovery(attach bool) *Recovery {
	if h.rec == nil && attach {
		h.rec = newRecovery(h)
	}
	return h.rec
}

// resetNodeComm rebuilds the per-node matching state at a recovery
// release: pull locks possibly left held by an unwound rank, match
// boxes and staging mailboxes possibly holding pre-crash deliveries.
// The delivery signal survives — each NIU's OnPIODeliver closure holds
// it, and a spurious wake of a signal waiter is harmless by design.
func (h *Hyades) resetNodeComm() {
	for i, nd := range h.cl.Nodes {
		nc := h.nodes[i]
		nc.pioLock = des.NewSemaphore(h.cl.Eng, fmt.Sprintf("node%d.piolock", nd.ID), 1)
		nc.viLock = des.NewSemaphore(h.cl.Eng, fmt.Sprintf("node%d.vilock", nd.ID), 1)
		nc.pioBox = make(map[matchKey]*des.Mailbox[startx.Message])
		nc.viBox = make(map[matchKey]*des.Mailbox[startx.Transfer])
		nc.shm = make(map[[2]int]*des.Mailbox[[]byte])
		for {
			if _, ok := nc.partial.TryRecv(); !ok {
				break
			}
		}
		for _, rb := range nc.results {
			for {
				if _, ok := rb.TryRecv(); !ok {
					break
				}
			}
		}
	}
}

// Bind creates the endpoint for a started worker.
func (h *Hyades) Bind(w *cluster.Worker) *HyadesEndpoint {
	return &HyadesEndpoint{h: h, w: w, nc: h.nodes[w.Node.ID]}
}

// HyadesEndpoint implements Endpoint over the StarT-X mechanisms.
type HyadesEndpoint struct {
	h     *Hyades
	w     *cluster.Worker
	nc    *nodeComm
	stats Stats
}

var _ Endpoint = (*HyadesEndpoint)(nil)

// Rank implements Endpoint.
func (ep *HyadesEndpoint) Rank() int { return ep.w.Rank }

// N implements Endpoint.
func (ep *HyadesEndpoint) N() int { return ep.h.cl.Processors() }

// Now implements Endpoint.
func (ep *HyadesEndpoint) Now() units.Time { return ep.w.Proc.Now() }

// Stats implements Endpoint.
func (ep *HyadesEndpoint) Stats() *Stats { return &ep.stats }

// Busy implements Endpoint.
func (ep *HyadesEndpoint) Busy(d units.Time) {
	if d <= 0 {
		return
	}
	ep.w.Proc.Delay(d)
	ep.stats.ComputeTime += d
}

// Exec implements Endpoint: the phase runs on the cluster's worker
// pool (if one is attached) while the baton meters the modeled time.
func (ep *HyadesEndpoint) Exec(d units.Time, fn func()) {
	if d < 0 {
		d = 0
	}
	ep.w.Proc.Exec(d, fn)
	ep.stats.ComputeTime += d
}

// nodeOf maps a rank to its SMP.
func (ep *HyadesEndpoint) nodeOf(rank int) int { return rank / ep.h.cl.Cfg.ProcsPerNode }

// cpuOf maps a rank to its CPU index within the SMP.
func (ep *HyadesEndpoint) cpuOf(rank int) int { return rank % ep.h.cl.Cfg.ProcsPerNode }

func (nc *nodeComm) pioMB(e *des.Engine, k matchKey) *des.Mailbox[startx.Message] {
	mb, ok := nc.pioBox[k]
	if !ok {
		mb = des.NewMailbox[startx.Message](e, "pio.stash")
		nc.pioBox[k] = mb
	}
	return mb
}

func (nc *nodeComm) viMB(e *des.Engine, k matchKey) *des.Mailbox[startx.Transfer] {
	mb, ok := nc.viBox[k]
	if !ok {
		mb = des.NewMailbox[startx.Transfer](e, "vi.stash")
		nc.viBox[k] = mb
	}
	return mb
}

// pioSend transmits a small control/reduction message.
func (ep *HyadesEndpoint) pioSend(dstRank, class, seq int, words []uint32) {
	tag := encodeTag(class, ep.w.CPU, ep.cpuOf(dstRank), seq)
	ep.w.Node.NIU.PIOSend(ep.w.Proc, ep.nodeOf(dstRank), tag, words, arctic.Low)
}

// pioWait returns the next message matching (class, srcRank, seq).
func (ep *HyadesEndpoint) pioWait(class, srcRank, seq int) startx.Message {
	return ep.pioWaitKey(matchKey{
		class:   class,
		srcNode: ep.nodeOf(srcRank),
		srcCPU:  ep.cpuOf(srcRank),
		dstCPU:  ep.w.CPU,
		seq:     seq,
	})
}

// pioWaitKey blocks until a message matching key is available.  The two
// SMP processors cooperate through the node's match-boxes: whoever
// polls the hardware queue deposits messages that are not its own and
// signals the other CPU.  A successful hardware poll charges the usual
// mmap reads; between arrivals the loop parks on the node's delivery
// signal rather than modelling every idle status read.
func (ep *HyadesEndpoint) pioWaitKey(key matchKey) startx.Message {
	eng := ep.h.cl.Eng
	box := ep.nc.pioMB(eng, key)
	for {
		if m, ok := box.TryRecv(); ok {
			return m
		}
		snapshot := ep.nc.pioSig.Seq()
		ep.nc.pioLock.Acquire(ep.w.Proc)
		if m, ok := box.TryRecv(); ok {
			ep.nc.pioLock.Release()
			return m
		}
		m, ok := ep.w.Node.NIU.TryPIORecv(ep.w.Proc, arctic.Low)
		ep.nc.pioLock.Release()
		if !ok {
			// Park with the engine watchdog as an explicit deadline so a
			// tripped wait names the rank and the exact match key it
			// starved on, not just the shared delivery signal.
			if wd := eng.WatchdogLimit(); wd > 0 {
				if !ep.nc.pioSig.WaitDeadline(ep.w.Proc, snapshot, wd) {
					panic(&des.WatchdogError{
						Limit: wd,
						Culprit: fmt.Sprintf("rank %d pioWait(class=%d srcNode=%d srcCPU=%d seq=%d)",
							ep.w.Rank, key.class, key.srcNode, key.srcCPU, key.seq),
						Waiters: eng.Waiters(),
					})
				}
			} else {
				ep.nc.pioSig.Wait(ep.w.Proc, snapshot)
			}
			continue
		}
		got := keyOfTag(m.Tag, m.Src)
		if got == key {
			return m
		}
		ep.nc.pioMB(eng, got).Send(m)
		ep.nc.pioSig.Broadcast()
	}
}

// viWait returns the next bulk transfer from srcRank.  Unlike control
// messages, a transfer we wait for is always already committed by the
// REQ/ACK handshake, so blocking on the hardware queue while holding
// the pull lock cannot deadlock.
func (ep *HyadesEndpoint) viWait(srcRank int) startx.Transfer {
	eng := ep.h.cl.Eng
	key := matchKey{class: clsExchData, srcNode: ep.nodeOf(srcRank), srcCPU: ep.cpuOf(srcRank), dstCPU: ep.w.CPU}
	box := ep.nc.viMB(eng, key)
	for {
		if t, ok := box.TryRecv(); ok {
			return t
		}
		ep.nc.viLock.Acquire(ep.w.Proc)
		if t, ok := box.TryRecv(); ok {
			ep.nc.viLock.Release()
			return t
		}
		var t startx.Transfer
		if wd := eng.WatchdogLimit(); wd > 0 {
			var ok bool
			if t, ok = ep.w.Node.NIU.VIRecvDeadline(ep.w.Proc, wd); !ok {
				panic(&des.WatchdogError{
					Limit: wd,
					Culprit: fmt.Sprintf("rank %d viWait(srcRank=%d) on node %d",
						ep.w.Rank, srcRank, ep.w.Node.ID),
					Waiters: eng.Waiters(),
				})
			}
		} else {
			t = ep.w.Node.NIU.VIRecv(ep.w.Proc)
		}
		ep.nc.viLock.Release()
		got := keyOfTag(t.Tag, t.Src)
		got.class = clsExchData
		if got == key {
			return t
		}
		ep.nc.viMB(eng, got).Send(t)
	}
}

// chargeCopy models packing or unpacking a halo slab between the model
// arrays and the VI region (or shared memory).
//
// Contiguous slabs (Rows == 1) are free: the §4.1 protocol initiates
// DMA on each chunk right after copying it, fully overlapping the copy
// with the (slower) 110 MB/s DMA stream — which is why the stand-alone
// Fig. 7 benchmark sees exactly 8.6 us + B/110 MB/s.  Strided slabs
// must be gathered into the pinned, contiguous VI region before the
// engine can stream them, so their pack cost is on the critical path;
// this is what makes the measured texchxyz (Fig. 11) an order of
// magnitude more expensive than the raw wire time.
func (ep *HyadesEndpoint) chargeCopy(layout Block) {
	cfg := ep.h.cfg
	nodeCfg := ep.w.Node.Cfg
	var d units.Time
	if layout.Rows > 1 {
		row := cfg.PackRowCached
		bw := nodeCfg.MemcpyBandwidth
		if !layout.Cached {
			row = cfg.PackRowUncached
			bw = nodeCfg.UncachedCopyBandwidth
		}
		d = units.Time(layout.Rows)*row + bw.Transfer(layout.Bytes())
	}
	if ep.w.CPU != 0 {
		// Slave data is staged through shared memory for the NIU.
		d += cfg.SlaveStageBandwidth.Transfer(layout.Bytes())
		d += 2 * nodeCfg.SemaphoreCost
	}
	if d > 0 {
		ep.w.Proc.Delay(d)
	}
}

// transferSend drives one direction of an exchange: negotiate with the
// receiver, then stream the packed slab through the VI-mode DMA engine
// (§4.1).
func (ep *HyadesEndpoint) transferSend(peer int, data []byte, layout Block) {
	ep.chargeCopy(layout) // pack into the VI region
	req := ep.h.getWords()
	req[0], req[1] = uint32(len(data)), uint32(ep.w.Rank)
	ep.pioSend(peer, clsExchReq, 0, req)
	ack := ep.pioWait(clsExchAck, peer, 0)
	ep.h.putWords(ack.Words)
	ep.w.Proc.Delay(ep.h.cfg.SetupCost)
	tag := encodeTag(clsExchData, ep.w.CPU, ep.cpuOf(peer), 0)
	ep.w.Node.NIU.DMASend(ep.w.Proc, ep.nodeOf(peer), tag, data, arctic.Low)
}

// transferRecv accepts one direction of an exchange.
func (ep *HyadesEndpoint) transferRecv(peer int, layout Block) []byte {
	req := ep.pioWait(clsExchReq, peer, 0)
	ep.h.putWords(req.Words)
	ack := ep.h.getWords()
	ack[0], ack[1] = uint32(ep.w.Rank), 0
	ep.pioSend(peer, clsExchAck, 0, ack)
	t := ep.viWait(peer)
	ep.chargeCopy(layout) // unpack from the VI region
	return t.Data
}

// Exchange implements Endpoint.  The two directions run sequentially
// because a single VI transfer saturates the PCI bus (§4.1); the
// lower-ranked side sends first.
func (ep *HyadesEndpoint) Exchange(peer int, send []byte, layout Block) []byte {
	t0 := ep.Now()
	var recv []byte
	switch {
	case peer == ep.w.Rank:
		// Periodic wrap onto the same worker: a pair of local copies.
		ep.chargeCopy(layout)
		ep.chargeCopy(layout)
		recv = append([]byte(nil), send...)
	case ep.nodeOf(peer) == ep.w.Node.ID:
		recv = ep.intraNodeExchange(peer, send, layout)
	case ep.w.Rank < peer:
		ep.transferSend(peer, send, layout)
		recv = ep.transferRecv(peer, layout)
	default:
		recv = ep.transferRecv(peer, layout)
		ep.transferSend(peer, send, layout)
	}
	ep.stats.Exchanges++
	ep.stats.BytesSent += int64(len(send))
	ep.stats.ExchangeTime += ep.Now() - t0
	return recv
}

// intraNodeExchange swaps slabs between the SMP's two processors
// through shared memory.
func (ep *HyadesEndpoint) intraNodeExchange(peer int, send []byte, layout Block) []byte {
	me, other := ep.w.CPU, ep.cpuOf(peer)
	out := ep.shmChan([2]int{me, other})
	in := ep.shmChan([2]int{other, me})
	ep.chargeCopy(layout) // copy into the shared staging buffer
	ep.w.Node.SemOp(ep.w.Proc)
	out.Send(send)
	data := in.Recv(ep.w.Proc)
	ep.w.Node.SemOp(ep.w.Proc)
	ep.chargeCopy(layout) // copy out
	return data
}

func (ep *HyadesEndpoint) shmChan(k [2]int) *des.Mailbox[[]byte] {
	mb, ok := ep.nc.shm[k]
	if !ok {
		mb = des.NewMailbox[[]byte](ep.h.cl.Eng, "shm.exch")
		ep.nc.shm[k] = mb
	}
	return mb
}

// GlobalSum implements Endpoint (§4.2).  With one processor per node it
// is the pure N log N butterfly of Fig. 8; with two, each SMP first
// reduces locally through shared memory, the masters run the butterfly,
// and the result is re-distributed locally — adding about 1 us, as the
// paper measures.
func (ep *HyadesEndpoint) GlobalSum(x float64) float64 {
	t0 := ep.Now()
	v := ep.allReduce(x)
	ep.stats.GlobalSums++
	ep.stats.GsumTime += ep.Now() - t0
	return v
}

// Barrier implements Endpoint as a degenerate reduction.
func (ep *HyadesEndpoint) Barrier() {
	t0 := ep.Now()
	ep.allReduce(0)
	ep.stats.BarrierTime += ep.Now() - t0
}

func (ep *HyadesEndpoint) allReduce(x float64) float64 {
	ppn := ep.h.cl.Cfg.ProcsPerNode
	if ppn == 1 {
		return ep.masterGsum(x)
	}
	nd := ep.w.Node
	if ep.w.CPU != 0 {
		nd.SemOp(ep.w.Proc)
		ep.nc.partial.Send(x)
		v := ep.nc.results[ep.w.CPU].Recv(ep.w.Proc)
		nd.SemOp(ep.w.Proc)
		return v
	}
	sum := x
	for i := 1; i < ppn; i++ {
		nd.SemOp(ep.w.Proc)
		sum += ep.nc.partial.Recv(ep.w.Proc)
	}
	total := ep.masterGsum(sum)
	for i := 1; i < ppn; i++ {
		nd.SemOp(ep.w.Proc)
		ep.nc.results[i].Send(total)
	}
	return total
}

// masterGsum runs the inter-node reduction among the CPU-0 processors.
// For a power-of-two node count it is the concurrent butterfly of
// Fig. 8 (N log N messages over log N rounds); otherwise it falls back
// to a binomial reduce-and-broadcast tree.
func (ep *HyadesEndpoint) masterGsum(x float64) float64 {
	nNodes := ep.h.cl.Cfg.Nodes
	if nNodes == 1 {
		return x
	}
	me := ep.w.Node.ID
	if nNodes&(nNodes-1) == 0 {
		sum := x
		rounds := 0
		for 1<<rounds < nNodes {
			rounds++
		}
		for r := 0; r < rounds; r++ {
			partner := me ^ 1<<r
			ep.gsumSendTo(partner, r, sum)
			sum += ep.gsumRecvFrom(partner, r)
			ep.w.Proc.Delay(ep.h.cfg.GsumRoundCPU)
		}
		return sum
	}
	// Binomial tree: reduce towards node 0, then broadcast back.
	sum := x
	seq := 0
	for mask := 1; mask < nNodes; mask <<= 1 {
		if me&mask != 0 {
			ep.gsumSendTo(me&^mask, seq, sum)
			break
		}
		if me|mask < nNodes {
			sum += ep.gsumRecvFrom(me|mask, seq)
			ep.w.Proc.Delay(ep.h.cfg.GsumRoundCPU)
		}
		seq++
	}
	// Broadcast: retrace the tree.
	highest := 1
	for highest < nNodes {
		highest <<= 1
	}
	if me != 0 {
		low := lowestSetBit(me)
		sum = ep.gsumRecvFrom(me&^low, 16+log2(low))
	}
	for mask := lowestSetBitOrTop(me, highest) >> 1; mask >= 1; mask >>= 1 {
		if me|mask < nNodes && me&mask == 0 {
			ep.gsumSendTo(me|mask, 16+log2(mask), sum)
		}
	}
	return sum
}

func lowestSetBit(v int) int { return v & -v }

func lowestSetBitOrTop(v, top int) int {
	if v == 0 {
		return top
	}
	return v & -v
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// gsumSendTo ships a float64 partial to another node's master as an
// 8-byte-payload PIO message — the case whose LogP costs Fig. 2 reports.
func (ep *HyadesEndpoint) gsumSendTo(nodeID, seq int, v float64) {
	bits := math.Float64bits(v)
	tag := encodeTag(clsGsum, 0, 0, seq)
	w := ep.h.getWords()
	w[0], w[1] = uint32(bits>>32), uint32(bits)
	ep.w.Node.NIU.PIOSend(ep.w.Proc, nodeID, tag, w, arctic.Low)
}

func (ep *HyadesEndpoint) gsumRecvFrom(nodeID, seq int) float64 {
	m := ep.pioWaitNode(clsGsum, nodeID, seq)
	v := math.Float64frombits(uint64(m.Words[0])<<32 | uint64(m.Words[1]))
	ep.h.putWords(m.Words)
	return v
}

// pioWaitNode matches on the sending node with CPU 0 (masters only).
func (ep *HyadesEndpoint) pioWaitNode(class, srcNode, seq int) startx.Message {
	return ep.pioWaitKey(matchKey{class: class, srcNode: srcNode, srcCPU: 0, dstCPU: 0, seq: seq})
}
