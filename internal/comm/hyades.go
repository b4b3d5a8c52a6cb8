package comm

import (
	"fmt"
	"slices"

	"hyades/internal/cluster"
	"hyades/internal/des"
	"hyades/internal/node"
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
	pioBox  map[matchKey]*des.Queue[startx.Message]
	viBox   map[matchKey]*des.Queue[startx.Transfer]

	// Mix-mode global sum rendezvous (§4.2).
	partial *des.Mailbox[float64]
	results []*des.Mailbox[float64] // indexed by CPU

	// Intra-SMP exchange staging, keyed by (srcCPU, dstCPU).
	shm map[[2]int]*des.Mailbox[[]byte]

	// Each CPU's reduction program (allReduce), nil until built; its
	// waits hold match boxes, so it goes when they are replaced.
	red [2][]op
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

	// The collective-order register (enterCollective): each rank's
	// GlobalSum/Barrier count, and the index and kind the first rank to
	// enter the collective in flight gave it.
	calls    []int
	collIdx  int
	collKind string
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
	h := &Hyades{cl: cl, cfg: cfg, calls: make([]int, cl.Processors()), collIdx: -1}
	for _, nd := range cl.Nodes {
		nc := &nodeComm{
			pioLock: des.NewSemaphore(cl.Eng, fmt.Sprintf("node%d.piolock", nd.ID), 1),
			viLock:  des.NewSemaphore(cl.Eng, fmt.Sprintf("node%d.vilock", nd.ID), 1),
			pioSig:  des.NewSignal(cl.Eng, fmt.Sprintf("node%d.piosig", nd.ID)),
			pioBox:  make(map[matchKey]*des.Queue[startx.Message]),
			viBox:   make(map[matchKey]*des.Queue[startx.Transfer]),
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
// boxes and staging mailboxes possibly holding pre-crash deliveries,
// and the collective-order register.  The delivery signal survives —
// each NIU's OnPIODeliver closure holds it, and a spurious wake of a
// signal waiter is harmless by design.
func (h *Hyades) resetNodeComm() {
	clear(h.calls)
	h.collIdx, h.collKind = -1, ""
	for i, nd := range h.cl.Nodes {
		nc := h.nodes[i]
		nc.pioLock = des.NewSemaphore(h.cl.Eng, fmt.Sprintf("node%d.piolock", nd.ID), 1)
		nc.viLock = des.NewSemaphore(h.cl.Eng, fmt.Sprintf("node%d.vilock", nd.ID), 1)
		nc.pioBox = make(map[matchKey]*des.Queue[startx.Message])
		nc.viBox = make(map[matchKey]*des.Queue[startx.Transfer])
		nc.shm = make(map[[2]int]*des.Mailbox[[]byte])
		nc.red = [2][]op{}
		for _, mb := range append([]*des.Mailbox[float64]{nc.partial}, nc.results...) {
			for _, ok := mb.TryRecv(); ok; _, ok = mb.TryRecv() {
			}
		}
	}
}

// Bind creates the endpoint for a started worker.
func (h *Hyades) Bind(w *cluster.Worker) *HyadesEndpoint {
	ep := &HyadesEndpoint{h: h, w: w, nc: h.nodes[w.Node.ID]}
	ep.prog.fn = ep.step
	w.Proc.NameWaits(ep.waitName)
	return ep
}

// HyadesEndpoint implements Endpoint over the StarT-X mechanisms.
type HyadesEndpoint struct {
	h     *Hyades
	w     *cluster.Worker
	nc    *nodeComm
	stats Stats
	prog  program // the primitive in flight as a step function
	ops   []op    // the build buffer: the exchange in flight
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

// Busy implements Endpoint.  Busy(0) consumes no sequence number; a
// negative d panics with a *des.PastError.
func (ep *HyadesEndpoint) Busy(d units.Time) {
	if d == 0 {
		return
	}
	ep.w.Proc.Delay(d)
	ep.stats.ComputeTime += d
}

// Exec implements Endpoint: the phase runs inline, or at its completion
// event when the engine has a pool attached (des.Proc.Exec); either way
// it costs d of virtual time.  A negative d panics with a *des.PastError.
func (ep *HyadesEndpoint) Exec(d units.Time, fn func()) {
	ep.w.Proc.Exec(d, fn)
	ep.stats.ComputeTime += d
}

// nodeOf maps a rank to its SMP.
func (ep *HyadesEndpoint) nodeOf(rank int) int { return rank / ep.h.cl.Cfg.ProcsPerNode }

// cpuOf maps a rank to its CPU index within the SMP.
func (ep *HyadesEndpoint) cpuOf(rank int) int { return rank % ep.h.cl.Cfg.ProcsPerNode }

func (nc *nodeComm) pioMB(k matchKey) *des.Queue[startx.Message] {
	mb, ok := nc.pioBox[k]
	if !ok {
		mb = new(des.Queue[startx.Message])
		nc.pioBox[k] = mb
	}
	return mb
}

func (nc *nodeComm) viMB(k matchKey) *des.Queue[startx.Transfer] {
	mb, ok := nc.viBox[k]
	if !ok {
		mb = new(des.Queue[startx.Transfer])
		nc.viBox[k] = mb
	}
	return mb
}

// keyOf is the match key of the message class/seq from srcRank to this
// endpoint's CPU.
func (ep *HyadesEndpoint) keyOf(class, srcRank, seq int) matchKey {
	return matchKey{class: class, srcNode: ep.nodeOf(srcRank), srcCPU: ep.cpuOf(srcRank), dstCPU: ep.w.CPU, seq: seq}
}

// copyOp adds the processor time of packing or unpacking a halo slab
// between the model arrays and the VI region (or shared memory).
//
// Contiguous slabs (Rows == 1) are free: the §4.1 protocol initiates
// DMA on each chunk right after copying it, fully overlapping the copy
// with the (slower) 110 MB/s DMA stream — which is why the stand-alone
// Fig. 7 benchmark sees exactly 8.6 us + B/110 MB/s.  Strided slabs
// must be gathered into the pinned, contiguous VI region before the
// engine can stream them, so their pack cost is on the critical path;
// this is what makes the measured texchxyz (Fig. 11) an order of
// magnitude more expensive than the raw wire time.
func (ep *HyadesEndpoint) copyOp(layout Block) {
	cfg := ep.h.cfg
	var d units.Time
	if layout.Rows > 1 {
		row, bw := cfg.PackRowCached, node.MemcpyBandwidth
		if !layout.Cached {
			row, bw = cfg.PackRowUncached, node.UncachedCopyBandwidth
		}
		d = units.Time(layout.Rows)*row + bw.Transfer(layout.Bytes())
	}
	if ep.w.CPU != 0 {
		// Slave data is staged through shared memory for the NIU.
		d += cfg.SlaveStageBandwidth.Transfer(layout.Bytes())
		d += 2 * node.SemaphoreCost
	}
	if d > 0 {
		ep.add(op{kind: opDelay, d: d})
	}
}

// semOp adds one shared-memory semaphore operation to the program.
func (ep *HyadesEndpoint) semOp() { ep.add(op{kind: opDelay, d: node.SemaphoreCost}) }

// sendOps adds one direction of an exchange to the program: negotiate
// with the receiver, then stream the packed slab through the VI-mode DMA
// engine (§4.1).
func (ep *HyadesEndpoint) sendOps(peer int, data []byte, layout Block) {
	node, cpu := ep.nodeOf(peer), ep.cpuOf(peer)
	ep.copyOp(layout) // pack into the VI region
	ep.add(op{kind: opSend, node: node, tag: encodeTag(clsExchReq, ep.w.CPU, cpu, 0),
		w: [2]uint32{uint32(len(data)), uint32(ep.w.Rank)}})
	ep.add(ep.waitOp(opHandshake, ep.keyOf(clsExchAck, peer, 0)))
	ep.add(op{kind: opDelay, d: ep.h.cfg.SetupCost})
	ep.add(op{kind: opDMA, node: node, tag: encodeTag(clsExchData, ep.w.CPU, cpu, 0), data: data})
}

// recvOps adds the accepting direction of an exchange to the program;
// the slab lands in prog.xfer.
func (ep *HyadesEndpoint) recvOps(peer int, layout Block) {
	ep.add(ep.waitOp(opHandshake, ep.keyOf(clsExchReq, peer, 0)))
	ep.add(op{kind: opSend, node: ep.nodeOf(peer), tag: encodeTag(clsExchAck, ep.w.CPU, ep.cpuOf(peer), 0),
		w: [2]uint32{uint32(ep.w.Rank), 0}})
	ep.add(op{kind: opVIWait, key: ep.keyOf(clsExchData, peer, 0), src: peer})
	ep.copyOp(layout) // unpack from the VI region
}

// Exchange implements Endpoint as one program, so the process switches
// in once, when it is done.  Between nodes the two directions run
// sequentially because a single VI transfer saturates the PCI bus
// (§4.1); the lower-ranked side sends first.
func (ep *HyadesEndpoint) Exchange(peer int, send []byte, layout Block) []byte {
	t0 := ep.Now()
	ep.begin()
	switch {
	case peer == ep.w.Rank:
		// Periodic wrap onto the same worker: a pair of local copies.
		ep.copyOp(layout)
		ep.copyOp(layout)
	case ep.nodeOf(peer) == ep.w.Node.ID:
		ep.shmOps(peer, send, layout)
	case ep.w.Rank < peer:
		ep.sendOps(peer, send, layout)
		ep.recvOps(peer, layout)
	default:
		ep.recvOps(peer, layout)
		ep.sendOps(peer, send, layout)
	}
	ep.run(ep.ops)
	recv := ep.prog.xfer.Data
	if peer == ep.w.Rank {
		recv = append([]byte(nil), send...)
	}
	ep.stats.Exchanges++
	ep.stats.BytesSent += int64(len(send))
	ep.stats.ExchangeTime += ep.Now() - t0
	return recv
}

// shmOps adds the exchange between the SMP's two processors to the
// program: the slabs swap through shared staging buffers, and the one
// from the peer lands in prog.xfer.
func (ep *HyadesEndpoint) shmOps(peer int, send []byte, layout Block) {
	me, other := ep.w.CPU, ep.cpuOf(peer)
	ep.copyOp(layout) // copy into the shared staging buffer
	ep.semOp()
	ep.add(op{kind: opShmSend, slabs: ep.shmChan([2]int{me, other}), data: send})
	ep.add(op{kind: opShmRecv, slabs: ep.shmChan([2]int{other, me})})
	ep.semOp()
	ep.copyOp(layout) // copy out
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
	ep.enterCollective("GlobalSum")
	t0 := ep.Now()
	v := ep.allReduce(x)
	ep.stats.GlobalSums++
	ep.stats.GsumTime += ep.Now() - t0
	return v
}

// Barrier implements Endpoint as a degenerate reduction.
func (ep *HyadesEndpoint) Barrier() {
	ep.enterCollective("Barrier")
	t0 := ep.Now()
	ep.allReduce(0)
	ep.stats.BarrierTime += ep.Now() - t0
}

// CollectiveMismatchError is the panic of a rank whose k-th collective
// is not the kind another rank entered as its k-th.  GlobalSum and
// Barrier run one reduction, so the swap would return wrong sums.
type CollectiveMismatchError struct {
	Rank, Index int    // the rank that entered second; k, from 0
	Got, Want   string // its kind; the kind the first rank entered
}

func (e *CollectiveMismatchError) Error() string {
	return fmt.Sprintf("comm: rank %d entered collective #%d as %s, another rank as %s", e.Rank, e.Index, e.Got, e.Want)
}

// enterCollective checks the rank's next collective against the
// register.  One register suffices: no rank leaves collective k before
// every rank has entered it (the butterfly, the binomial tree and the
// SMP half each need every contribution), so it holds k-1 or k here.
func (ep *HyadesEndpoint) enterCollective(kind string) {
	h, r := ep.h, ep.w.Rank
	if k := h.calls[r]; h.collIdx != k {
		h.collIdx, h.collKind = k, kind
	} else if h.collKind != kind {
		panic(&CollectiveMismatchError{Rank: r, Index: k, Got: kind, Want: h.collKind})
	}
	h.calls[r]++
}

// allReduce runs a reduction as one program.  A slave hands its partial
// to the SMP's master through shared memory and waits for the total; a
// master gathers its slaves' partials, runs the inter-node reduction
// among the masters and hands the total back.  Every GlobalSum and
// Barrier of a rank runs the same program, so it is built at the first
// and replayed until a recovery release replaces the match boxes.
func (ep *HyadesEndpoint) allReduce(x float64) float64 {
	red := &ep.nc.red[ep.w.CPU]
	if *red == nil {
		ep.buildReduce()
		*red = slices.Clone(ep.ops)
	}
	ep.prog.sum = x
	ep.run(*red)
	return ep.prog.sum
}

// buildReduce builds the reduction program in the build buffer.
func (ep *HyadesEndpoint) buildReduce() {
	ep.begin()
	if ep.w.CPU != 0 {
		ep.semOp()
		ep.add(op{kind: opShmPut, sums: ep.nc.partial})
		ep.add(op{kind: opShmSet, sums: ep.nc.results[ep.w.CPU]})
		ep.semOp()
	} else {
		ppn := ep.h.cl.Cfg.ProcsPerNode
		for i := 1; i < ppn; i++ {
			ep.semOp()
			ep.add(op{kind: opShmAdd, sums: ep.nc.partial})
		}
		ep.masterOps()
		for i := 1; i < ppn; i++ {
			ep.semOp()
			ep.add(op{kind: opShmPut, sums: ep.nc.results[i]})
		}
	}
}

// masterOps adds the inter-node reduction among the CPU-0 processors to
// the program.  For a power-of-two node count it is the concurrent
// butterfly of Fig. 8 (N log N messages over log N rounds); otherwise it
// is the binomial reduce-and-broadcast tree, whose broadcast rounds are
// numbered from 16.  Each partial travels as an 8-byte-payload PIO
// message — the case whose LogP costs Fig. 2 reports.
func (ep *HyadesEndpoint) masterOps() {
	nNodes, me := ep.h.cl.Cfg.Nodes, ep.w.Node.ID
	if nNodes&(nNodes-1) == 0 {
		for r := 0; 1<<r < nNodes; r++ {
			partner := me ^ 1<<r
			ep.add(op{kind: opSendSum, node: partner, tag: encodeTag(clsGsum, 0, 0, r)})
			ep.add(ep.waitOp(opAdd, matchKey{class: clsGsum, srcNode: partner, seq: r}))
			ep.add(op{kind: opDelay, d: ep.h.cfg.GsumRoundCPU})
		}
		return
	}
	for s := range (BinomialTree{Me: me, N: nNodes}).Steps {
		seq := s.Round
		if s.Kind == RecvResult || s.Kind == SendDown {
			seq += 16
		}
		key := matchKey{class: clsGsum, srcNode: s.Peer, seq: seq}
		switch s.Kind {
		case SendUp, SendDown:
			ep.add(op{kind: opSendSum, node: s.Peer, tag: encodeTag(clsGsum, 0, 0, seq)})
		case RecvAdd:
			ep.add(ep.waitOp(opAdd, key))
			ep.add(op{kind: opDelay, d: ep.h.cfg.GsumRoundCPU})
		case RecvResult:
			ep.add(ep.waitOp(opSet, key))
		}
	}
}
