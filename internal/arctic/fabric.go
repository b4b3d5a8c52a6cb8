package arctic

import (
	"fmt"
	"math"
	"math/rand"

	"hyades/internal/des"
	"hyades/internal/fault"
	"hyades/internal/units"
)

// Config describes a fat-tree fabric instance.
type Config struct {
	// Endpoints is the number of attached network endpoints (NIUs).
	Endpoints int
	// Levels is the number of router stages.  The fabric's capacity is
	// 4^Levels endpoints; Endpoints may be smaller.  Zero means "just
	// enough stages for Endpoints".
	Levels int
	// LinkBandwidth is the per-direction link rate (paper: 150 MByte/s).
	LinkBandwidth units.Bandwidth
	// RouterLatency is the per-stage forwarding latency (paper: <0.15 us).
	RouterLatency units.Time
	// RandomUpSeed seeds the adaptive up-route generator used for
	// packets with the RandomUp flag set.
	RandomUpSeed int64
	// Faults, when non-nil, injects deterministic link faults: drops,
	// corruption, degradation windows and outages (package fault).
	Faults *fault.Plan
}

// DefaultConfig returns the published Arctic parameters for n endpoints.
func DefaultConfig(n int) Config {
	return Config{
		Endpoints:     n,
		LinkBandwidth: 150 * units.MBps,
		RouterLatency: 150 * units.Nanosecond,
	}
}

// Stats aggregates fabric-wide counters.
type Stats struct {
	Packets        int64 // packets delivered
	PayloadBytes   int64 // payload bytes delivered
	WireBytes      int64 // wire bytes delivered
	Dropped        int64 // packets dropped at a router for bad CRC
	CorruptArrived int64 // corrupted packets that reached an endpoint
	FaultDropped   int64 // packets silently dropped by an injected link fault
	FaultCorrupted int64 // packets corrupted in flight by an injected fault
	OutageDropped  int64 // packets lost to a link outage window
	FailedOver     int64 // up-phase hops re-routed around a downed up-link
}

// LinkStats is the per-link fault counter snapshot (see Fabric.LinkStats).
type LinkStats struct {
	Name          string
	Transmitted   int64 // packets that started crossing the link
	FaultDropped  int64
	Corrupted     int64
	OutageDropped int64
}

// transitQueue is a FIFO ring of transits.  Links queue and dequeue
// packets on every hop of every journey; a ring recycles one buffer in
// steady state where the old append + [1:] idiom leaked front capacity
// and re-grew the slice every few packets — the fabric's dominant
// allocation site before the zero-alloc hunt.
type transitQueue struct {
	buf     []*transit
	head, n int
}

func (q *transitQueue) push(t *transit) {
	if q.n == len(q.buf) {
		grown := make([]*transit, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = t
	q.n++
}

func (q *transitQueue) pop() *transit {
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return t
}

// link is one directed link with two-priority FIFO queueing: idle,
// transmitting with nothing behind the packet (free only reserved), or
// transmitting with a successor waiting (free queued to run startNext).
type link struct {
	fab     *Fabric
	name    string
	free    des.Slot
	queueHi transitQueue
	queueLo transitQueue
	// sink receives the packet when its head has crossed this link;
	// exactly one of nextRouter/endpoint is set.
	deliver func(t *transit)
	final   bool // link terminates at an endpoint: wait for the tail

	// flt is the link's fault-injection state (nil = pristine link).
	flt   *fault.Link
	stats LinkStats
}

// down reports whether the link is inside an injected outage window.
func (l *link) down() bool {
	return l.flt != nil && l.flt.Down(l.fab.eng.Now())
}

// transit is a packet in flight.  Transits are recycled through the
// fabric's freelist; deliverFn is bound once per transit object (not
// per hop) and survives recycling.
type transit struct {
	pkt         *Packet
	upRemaining int   // up hops left before the packet turns downwards
	link        *link // link currently transmitting this transit
	deliverFn   func()
}

// router is one Arctic switch.  Its forwarding behaviour is folded into
// the link event chain; the struct records topology for navigation.
type router struct {
	stage int
	index int
	up    []*link // towards the roots, one per up port
	down  []*link // towards the leaves, one per down port
}

// Fabric is the simulated switch fabric.
type Fabric struct {
	eng     *des.Engine
	cfg     Config
	levels  int
	routers [][]*router // [stage][index]
	inject  []*link     // endpoint -> leaf router
	eject   []*link     // leaf router -> endpoint
	links   []*link     // every link in creation order, for LinkStats
	rx      []func(*Packet)
	rng     *rand.Rand
	stats   Stats
	free    []*transit // recycled transit objects
	freePkt []*Packet  // recycled pooled packets (see AcquirePacket)
}

// AcquirePacket returns a zeroed packet from the fabric's freelist (or
// a fresh one), marked so the fabric reclaims it when its journey ends:
// after the endpoint's receive handler returns, or at whichever router
// or link drops it.  Receive handlers must therefore copy out what they
// keep — the payload slice header is fine to move, the *Packet is not.
// Callers that need a packet to outlive delivery (tests, diagnostics)
// should build one directly instead.
func (f *Fabric) AcquirePacket() *Packet {
	if n := len(f.freePkt); n > 0 {
		p := f.freePkt[n-1]
		f.freePkt[n-1] = nil
		f.freePkt = f.freePkt[:n-1]
		return p
	}
	return &Packet{pooled: true}
}

// releasePacket reclaims a pooled packet at the end of its journey.
// Unpooled packets are left alone (their owner may have retained them).
func (f *Fabric) releasePacket(p *Packet) {
	if !p.pooled {
		return
	}
	*p = Packet{pooled: true}
	f.freePkt = append(f.freePkt, p)
}

// newTransit pops the freelist or allocates; the bound deliverFn is
// created once per object and reused across journeys.
func (f *Fabric) newTransit(p *Packet, upRemaining int) *transit {
	if n := len(f.free); n > 0 {
		t := f.free[n-1]
		f.free = f.free[:n-1]
		t.pkt, t.upRemaining = p, upRemaining
		return t
	}
	t := &transit{pkt: p, upRemaining: upRemaining}
	t.deliverFn = func() { t.link.deliver(t) }
	return t
}

// recycle returns a finished transit (delivered or dropped) to the
// freelist.
func (f *Fabric) recycle(t *transit) {
	t.pkt, t.link = nil, nil
	f.free = append(f.free, t)
}

// New builds a fabric for cfg on engine e.
func New(e *des.Engine, cfg Config) (*Fabric, error) {
	if cfg.Endpoints < 1 {
		return nil, fmt.Errorf("arctic: need at least 1 endpoint, got %d", cfg.Endpoints)
	}
	levels := cfg.Levels
	if levels == 0 {
		for capacity := Radix; ; capacity *= Radix {
			levels++
			if capacity >= cfg.Endpoints {
				break
			}
		}
	}
	if levels > maxUpSteps {
		return nil, fmt.Errorf("arctic: %d levels exceeds the %d-stage routing header", levels, maxUpSteps)
	}
	capacity := 1
	for i := 0; i < levels; i++ {
		capacity *= Radix
	}
	if cfg.Endpoints > capacity {
		return nil, fmt.Errorf("arctic: %d endpoints exceed capacity %d of %d-level tree", cfg.Endpoints, capacity, levels)
	}
	f := &Fabric{
		eng:    e,
		cfg:    cfg,
		levels: levels,
		rx:     make([]func(*Packet), cfg.Endpoints),
		rng:    rand.New(rand.NewSource(cfg.RandomUpSeed ^ 0x41524354)), // "ARCT"
	}
	routersPerStage := capacity / Radix
	f.routers = make([][]*router, levels)
	for s := 0; s < levels; s++ {
		f.routers[s] = make([]*router, routersPerStage)
		for i := 0; i < routersPerStage; i++ {
			f.routers[s][i] = &router{stage: s, index: i,
				up:   make([]*link, Radix),
				down: make([]*link, Radix),
			}
		}
	}
	// Inter-stage wiring (folded butterfly): up port q of router (s, i)
	// connects to router (s+1, i with digit_s replaced by q).  The same
	// edge seen from above is down port d of (s+1, j) towards
	// (s, j with digit_s replaced by d).
	for s := 0; s < levels-1; s++ {
		for i, r := range f.routers[s] {
			for q := 0; q < Radix; q++ {
				j := replaceDigit(i, s, q)
				upper := f.routers[s+1][j]
				upLink := f.newLink(fmt.Sprintf("up(s%d,%d,p%d)", s, i, q))
				dnLink := f.newLink(fmt.Sprintf("down(s%d,%d,p%d)", s+1, j, digit(i, s)))
				r.up[q] = upLink
				upper.down[digit(i, s)] = dnLink
				upLink.deliver = f.routerInput(upper)
				dnLink.deliver = f.routerInput(r)
			}
		}
	}
	// Endpoint wiring.
	f.inject = make([]*link, cfg.Endpoints)
	f.eject = make([]*link, cfg.Endpoints)
	for ep := 0; ep < cfg.Endpoints; ep++ {
		leaf := f.routers[0][ep/Radix]
		in := f.newLink(fmt.Sprintf("inject(%d)", ep))
		in.deliver = f.routerInput(leaf)
		f.inject[ep] = in
		out := f.newLink(fmt.Sprintf("eject(%d)", ep))
		out.final = true
		epCopy := ep
		out.deliver = func(t *transit) {
			pkt := t.pkt
			f.recycle(t)
			f.deliverToEndpoint(epCopy, pkt)
		}
		f.eject[ep] = out
		// The leaf router's down port for this endpoint is the eject
		// link; down-phase forwarding finds it there.
		leaf.down[ep%Radix] = out
	}
	return f, nil
}

// replaceDigit returns v with its 2-bit digit at the given stage set to q.
func replaceDigit(v, stage, q int) int {
	shift := 2 * stage
	return v&^((Radix-1)<<shift) | q<<shift
}

func (f *Fabric) newLink(name string) *link {
	l := &link{fab: f, name: name}
	l.free.Init(f.eng, l.startNext)
	l.stats.Name = name
	if f.cfg.Faults != nil {
		l.flt = f.cfg.Faults.Link(name)
	}
	f.links = append(f.links, l)
	return l
}

// Engine returns the simulation engine the fabric runs on.
func (f *Fabric) Engine() *des.Engine { return f.eng }

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Stats returns a snapshot of the fabric counters.
func (f *Fabric) Stats() Stats { return f.stats }

// LinkStats returns per-link counters for every link that saw at least
// one injected fault, in deterministic link-creation order.
func (f *Fabric) LinkStats() []LinkStats {
	var out []LinkStats
	for _, l := range f.links {
		if l.stats.FaultDropped > 0 || l.stats.Corrupted > 0 || l.stats.OutageDropped > 0 {
			out = append(out, l.stats)
		}
	}
	return out
}

// Attach registers the receive handler for an endpoint.  The handler
// runs in engine context at the packet's delivery time.
func (f *Fabric) Attach(endpoint int, rx func(*Packet)) {
	f.rx[endpoint] = rx
}

// RouteFor fills in the routing header fields of p for a src->dst
// journey, choosing a deterministic up path (so that all packets between
// the same pair follow the same path and arrive in FIFO order, as the
// paper's software layer assumes).  Packets with RandomUp set get an
// adaptive path chosen at injection time instead.
func (f *Fabric) RouteFor(p *Packet, src, dst int) {
	p.Src, p.Dst = src, dst
	p.DownRoute = downRouteFor(dst)
	up := 0
	for a, b := src/Radix, dst/Radix; a != b; a, b = a/Radix, b/Radix {
		up++
	}
	p.UpSteps = uint8(up)
	if up == 0 {
		p.UpDigits = 0
		return
	}
	if p.RandomUp {
		p.UpDigits = uint16(f.rng.Intn(1 << (2 * up)))
		return
	}
	// Deterministic spread: ascend along the source's own digits.  All
	// packets of a pair share one path (preserving FIFO order), and the
	// four endpoints under a leaf router fan out over the four up ports,
	// so shift-by-constant patterns (exchange with a fixed neighbour,
	// butterfly global-sum rounds) see no up-link contention — matching
	// the paper's "undiminished pair-wise bandwidth" observation (§4.1).
	p.UpDigits = uint16(src) & (1<<(2*up) - 1)
}

// Inject hands a packet to the fabric at the current virtual time.  The
// packet must already carry routing fields (see RouteFor).  Injection
// models the NIU driving the endpoint's up-link.
func (f *Fabric) Inject(src int, p *Packet) {
	if p.Dst < 0 || p.Dst >= f.cfg.Endpoints {
		panic(fmt.Sprintf("arctic: inject to invalid endpoint %d", p.Dst))
	}
	p.Seal()
	f.inject[src].enqueue(f.newTransit(p, int(p.UpSteps)))
}

// routerInput returns the forwarding action for packets whose head has
// arrived at r: consume routing state, verify CRC, and drive the next
// link after the router latency.
func (f *Fabric) routerInput(r *router) func(*transit) {
	return func(t *transit) {
		if !t.pkt.checkCRC() {
			// Paper §2.2: correctness is verified at every router
			// stage; a corrupted packet cannot propagate silently.
			f.stats.Dropped++
			f.releasePacket(t.pkt)
			f.recycle(t)
			return
		}
		var next *link
		if t.upRemaining > 0 {
			q := digit(int(t.pkt.UpDigits), r.stage)
			t.upRemaining--
			next = r.up[q]
			if next != nil && next.down() {
				// Adaptive fail-over: in a fat tree every up port leads
				// to a router that still covers the destination's
				// subtree, so a faulted up-link can be routed around.
				// Scan the remaining ports in deterministic order; if
				// every up-link is down the packet stays on the chosen
				// one and is lost to the outage (counted there).
				for i := 1; i < Radix; i++ {
					alt := r.up[(q+i)%Radix]
					if alt != nil && !alt.down() {
						next = alt
						f.stats.FailedOver++
						break
					}
				}
			}
		} else {
			// The down path is fully determined by the destination
			// digits (Fig. 1): there is exactly one route, so a downed
			// down-link surfaces as packet loss, never as misrouting.
			d := digit(t.pkt.Dst, r.stage)
			next = r.down[d]
		}
		if next == nil {
			panic(fmt.Sprintf("arctic: no route at router s%d/%d for packet %d->%d", r.stage, r.index, t.pkt.Src, t.pkt.Dst))
		}
		next.enqueue(t)
	}
}

// deliverToEndpoint completes a packet's journey.
func (f *Fabric) deliverToEndpoint(ep int, p *Packet) {
	if p.Dst != ep {
		panic(fmt.Sprintf("arctic: misrouted packet %d->%d arrived at %d", p.Src, p.Dst, ep))
	}
	if !p.checkCRC() {
		// The endpoint NIU also checks CRC; software sees a status bit.
		f.stats.CorruptArrived++
	}
	f.stats.Packets++
	f.stats.PayloadBytes += int64(p.PayloadBytes())
	f.stats.WireBytes += int64(p.WireBytes())
	if rx := f.rx[ep]; rx != nil {
		rx(p)
	}
	f.releasePacket(p)
}

// enqueue places a transit on the link, starting transmission if idle.
// High-priority packets overtake queued low-priority ones but do not
// preempt a transmission in progress.
func (l *link) enqueue(t *transit) {
	if t.pkt.Pri == High {
		l.queueHi.push(t)
	} else {
		l.queueLo.push(t)
	}
	if !l.free.Await() {
		l.startNext()
	}
}

// hold occupies the link for d; the free event at the end is queued
// outright only if a packet is already waiting for it.
func (l *link) hold(d units.Time) { l.free.Hold(d, l.queueHi.n+l.queueLo.n > 0) }

// startNext begins transmitting the best queued packet, if any.
func (l *link) startNext() {
	var t *transit
	switch {
	case l.queueHi.n > 0:
		t = l.queueHi.pop()
	case l.queueLo.n > 0:
		t = l.queueLo.pop()
	default:
		return
	}
	f := l.fab
	l.stats.Transmitted++
	bw, lat := f.cfg.LinkBandwidth, f.cfg.RouterLatency
	if l.flt != nil {
		now := f.eng.Now()
		if l.flt.Down(now) {
			// Whole-link outage: the packet vanishes at the head of the
			// wire.  Try the next queued packet immediately (it too will
			// be lost while the outage lasts, in FIFO order).
			l.stats.OutageDropped++
			f.stats.OutageDropped++
			f.releasePacket(t.pkt)
			f.recycle(t)
			l.hold(0)
			return
		}
		if bwScale, latScale := l.flt.Scale(now); bwScale != 1 || latScale != 1 {
			bw = units.Bandwidth(float64(bw) * bwScale)
			lat = units.Time(math.Round(float64(lat) * latScale))
		}
		switch l.flt.Transmit(now) {
		case fault.Drop:
			// The packet occupies the wire for its full length but its
			// tail never arrives anywhere.
			l.stats.FaultDropped++
			f.stats.FaultDropped++
			l.hold(bw.Transfer(t.pkt.WireBytes()))
			f.releasePacket(t.pkt)
			f.recycle(t)
			return
		case fault.Corrupt:
			t.pkt.Corrupt()
			l.stats.Corrupted++
			f.stats.FaultCorrupted++
		}
	}
	full := bw.Transfer(t.pkt.WireBytes())
	// Virtual cut-through: the downstream hop sees the packet head after
	// the router latency plus the header serialization; the link itself
	// stays occupied for the full wire size.  The final hop into an
	// endpoint completes only when the tail arrives.
	head := lat + bw.Transfer(HeaderBytes)
	handoff := head
	if l.final {
		handoff = lat + full
	}
	t.link = l
	f.eng.Schedule(handoff, t.deliverFn)
	l.hold(full)
}

// Levels reports the number of router stages.
func (f *Fabric) Levels() int { return f.levels }

// HopsBetween returns the number of links a packet crosses from src to
// dst (injection and ejection links included).
func (f *Fabric) HopsBetween(src, dst int) int {
	up := 0
	for a, b := src/Radix, dst/Radix; a != b; a, b = a/Radix, b/Radix {
		up++
	}
	return 2 + 2*up // inject + eject + up/down inter-stage links
}
