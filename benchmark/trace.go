package main

import (
	"encoding/json"
	"os"
	"time"

	"hyades/internal/arctic"
	"hyades/internal/comm"
	"hyades/internal/units"
)

// The traced run splits host wall time between the layers from outside
// the program.  It runs with Workers: -1, so exactly one goroutine —
// the rank holding the DES baton — executes at any instant, and every
// interval between two consecutive stamps belongs to exactly one
// category:
//
//   - after a rank returns from a primitive it runs model code until
//     its next entry: gcm driver self time;
//   - between the start and end of an Exec closure: gcm kernel self
//     time;
//   - after an entry (or after an Exec closure ends) the comm library,
//     the NIUs, the fabric and the event engine run until some rank
//     returns from a primitive: stack time, charged to the primitive
//     that returns.
//
// Because the categories partition the stamped interval, the shares
// sum to the timed wall time by construction.

// prim names one comm.Endpoint primitive.
type prim uint8

const (
	primExchange prim = iota
	primGsum
	primBarrier
	primBusy
	primExec // time waiting in Exec outside the closure
	nPrims
)

var primNames = [nPrims]string{"exchange", "gsum", "barrier", "busy", "exec_wait"}

// stampKind is what the previous stamp was; it decides who owns the
// interval that ends at the next stamp.
type stampKind uint8

const (
	afterReturn    stampKind = iota // model code is running
	afterEntry                      // the stack is running
	afterExecStart                  // an Exec closure is running
)

// span is one recorded interval, in nanoseconds since the trace began.
// Op spans (Name "op") parent the primitive spans issued during that
// op; an Exec closure's span (Name "kernel") is parented by its Exec.
type span struct {
	Name   string `json:"name"`
	Rank   int32  `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the span list, -1 = root
	Step   int32  `json:"step"`   // op index within the rank
}

// maxSpans bounds the in-memory span list; the self-time ledger keeps
// accumulating after the list is full and the overflow is counted.
const maxSpans = 1 << 18

// tracer accumulates the exclusive split and the span list.  It needs
// no lock: a traced run never has two goroutines running at once.
type tracer struct {
	epoch time.Time
	on    bool
	last  int64 // ns of the previous stamp
	prev  stampKind

	driverNs int64
	kernelNs int64
	stackNs  [nPrims]int64
	calls    [nPrims]int64
	opaqueNs int64 // stack time the decorator could not split (recover4)

	spans   []span
	dropped int64

	model trafficModel
}

// trafficModel counts the packets the comm library must have sent for
// the calls the decorator saw, and the links they crossed.  The fabric
// reports packets and bytes but not route lengths (LinkStats lists
// faulted links only), so hops are reconstructed here from the
// protocol: an inter-node Exchange sends one REQ, one ACK and
// ceil(bytes/88) bulk packets to the peer's node; a global sum or
// barrier among 2^k node masters is the Fig. 8 butterfly, one 8-byte
// PIO message to node me^(1<<r) per round.  Every packet between two
// nodes crosses Fabric.HopsBetween links.  runWorkload notes it when the
// modelled packet count strays from the fabric's own.
type trafficModel struct {
	on         bool
	nodes, ppn int
	rounds     int // butterfly rounds, 0 unless nodes is a power of two
	hops       func(src, dst int) int

	interExch, intraExch, selfExch int64
	pioMsgs, dmaPackets, dmaBytes  int64
	crossings                      int64
}

func (m *trafficModel) init(nodes, ppn int, hops func(src, dst int) int) {
	m.nodes, m.ppn, m.hops = nodes, ppn, hops
	if nodes&(nodes-1) == 0 {
		for 1<<m.rounds < nodes {
			m.rounds++
		}
	}
}

func (m *trafficModel) packets() int64 { return m.pioMsgs + m.dmaPackets }

func (m *trafficModel) exchange(rank, peer, n int) {
	if !m.on || m.ppn == 0 {
		return
	}
	src, dst := rank/m.ppn, peer/m.ppn
	switch {
	case rank == peer:
		m.selfExch++
	case src == dst:
		m.intraExch++
	default:
		bulk := int64((n + arctic.MaxPayloadBytes - 1) / arctic.MaxPayloadBytes)
		m.interExch++
		m.pioMsgs += 2
		m.dmaPackets += bulk
		m.dmaBytes += int64(n)
		m.crossings += (2 + bulk) * int64(m.hops(src, dst))
	}
}

func (m *trafficModel) reduce(rank int) {
	if !m.on || m.ppn == 0 || rank%m.ppn != 0 {
		return
	}
	me := rank / m.ppn
	for r := 0; r < m.rounds; r++ {
		m.pioMsgs++
		m.crossings += int64(m.hops(me, me^1<<r))
	}
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens (or reopens) the timed interval; the calling rank is in
// model code.
func (t *tracer) start() {
	t.on = true
	t.last = t.now()
	t.prev = afterReturn
}

// stop closes the timed interval, charging the tail to the running
// model code.
func (t *tracer) stop() {
	if !t.on {
		return
	}
	t.charge(t.now(), primExec)
	t.on = false
}

// charge attributes [last, now) by the kind of the previous stamp; p
// is the primitive to charge when the stack was running.
func (t *tracer) charge(now int64, p prim) {
	d := now - t.last
	t.last = now
	switch t.prev {
	case afterReturn:
		t.driverNs += d
	case afterExecStart:
		t.kernelNs += d
	default:
		t.stackNs[p] += d
	}
}

func (t *tracer) addSpan(s span) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// totalNs is the stamped wall time.
func (t *tracer) totalNs() int64 {
	n := t.driverNs + t.kernelNs + t.opaqueNs
	for _, s := range t.stackNs {
		n += s
	}
	return n
}

// writeSpans dumps the span list as one JSON document.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedEP decorates one rank's endpoint with the stamps.  Everything
// it does not time passes straight through the embedded endpoint.
type tracedEP struct {
	comm.Endpoint
	t    *tracer
	rank int32

	op   int32 // index of the rank's open op span, -1 outside ops
	step int32

	execSpan int32
	execFn   func() // the closure being run by Exec
	runExec  func() // bound once: stamps around execFn
}

func newTracedEP(ep comm.Endpoint, t *tracer) *tracedEP {
	e := &tracedEP{Endpoint: ep, t: t, rank: int32(ep.Rank()), op: -1, execSpan: -1}
	e.runExec = func() {
		t := e.t
		var from int64
		if t.on {
			from = t.now()
			t.charge(from, primExec)
			t.prev = afterExecStart
		}
		e.execFn()
		if t.on {
			to := t.now()
			t.charge(to, primExec)
			t.prev = afterEntry
			t.addSpan(span{Name: "kernel", Rank: e.rank, Start: from, End: to, Parent: e.execSpan, Step: e.step})
		}
	}
	return e
}

// beginOp and endOp bracket one workload op on this rank, so that the
// spans of one op share its identifier.
func (e *tracedEP) beginOp() {
	if !e.t.on {
		return
	}
	e.op = e.t.addSpan(span{Name: "op", Rank: e.rank, Start: e.t.now(), Parent: -1, Step: e.step})
}

func (e *tracedEP) endOp() {
	if e.op >= 0 {
		e.t.spans[e.op].End = e.t.now()
	}
	e.op = -1
	e.step++
}

// enter stamps the entry to a primitive and reserves its span.
func (e *tracedEP) enter(p prim) int32 {
	t := e.t
	if !t.on {
		return -1
	}
	from := t.now()
	t.charge(from, p)
	t.prev = afterEntry
	t.calls[p]++
	return t.addSpan(span{Name: primNames[p], Rank: e.rank, Start: from, Parent: e.op, Step: e.step})
}

// leave stamps the return from a primitive: whatever ran since the
// previous stamp was stack time that this return was waiting for.
func (e *tracedEP) leave(p prim, idx int32) {
	t := e.t
	if !t.on {
		return
	}
	now := t.now()
	t.charge(now, p)
	t.prev = afterReturn
	if idx >= 0 {
		t.spans[idx].End = now
	}
}

func (e *tracedEP) Exchange(peer int, send []byte, layout comm.Block) []byte {
	e.t.model.exchange(int(e.rank), peer, len(send))
	idx := e.enter(primExchange)
	got := e.Endpoint.Exchange(peer, send, layout)
	e.leave(primExchange, idx)
	return got
}

func (e *tracedEP) GlobalSum(x float64) float64 {
	e.t.model.reduce(int(e.rank))
	idx := e.enter(primGsum)
	v := e.Endpoint.GlobalSum(x)
	e.leave(primGsum, idx)
	return v
}

func (e *tracedEP) Barrier() {
	e.t.model.reduce(int(e.rank))
	idx := e.enter(primBarrier)
	e.Endpoint.Barrier()
	e.leave(primBarrier, idx)
}

func (e *tracedEP) Busy(d units.Time) {
	idx := e.enter(primBusy)
	e.Endpoint.Busy(d)
	e.leave(primBusy, idx)
}

func (e *tracedEP) Exec(d units.Time, fn func()) {
	idx := e.enter(primExec)
	e.execSpan, e.execFn = idx, fn
	// A traced run has no worker pool (Workers: -1), so the closure runs
	// inline on the baton and its stamps cannot race with any rank.
	//lint:allow execpure traced runs have no pool: the stamping closure runs inline on the baton
	e.Endpoint.Exec(d, e.runExec)
	e.execFn = nil
	e.leave(primExec, idx)
}
