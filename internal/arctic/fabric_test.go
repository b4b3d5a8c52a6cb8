package arctic

import (
	"fmt"
	"testing"
	"testing/quick"

	"hyades/internal/des"
	"hyades/internal/fault"
	"hyades/internal/units"
)

// testFabric builds an n-endpoint fabric that records deliveries.
func testFabric(t *testing.T, n int) (*des.Engine, *Fabric, *[]*Packet) {
	t.Helper()
	eng := des.NewEngine()
	fab, err := New(eng, DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	var got []*Packet
	for ep := 0; ep < n; ep++ {
		fab.Attach(ep, func(p *Packet) { got = append(got, p) })
	}
	return eng, fab, &got
}

func mkPacket(f *Fabric, src, dst int, words int, tag uint16) *Packet {
	p := &Packet{Tag: tag, Payload: make([]uint32, words)}
	for i := range p.Payload {
		p.Payload[i] = uint32(i) ^ uint32(tag)<<8
	}
	f.RouteFor(p, src, dst)
	return p
}

func TestAllPairsDelivery16(t *testing.T) {
	eng, fab, got := testFabric(t, 16)
	want := 0
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			fab.Inject(src, mkPacket(fab, src, dst, 2, uint16(src)))
			want++
		}
	}
	eng.Run()
	if len(*got) != want {
		t.Fatalf("delivered %d of %d packets", len(*got), want)
	}
	// deliverToEndpoint panics on misrouting, so arrival implies routing
	// correctness; double-check Dst anyway.
	for _, p := range *got {
		if p.Dst < 0 || p.Dst >= 16 {
			t.Fatalf("bad dst %d", p.Dst)
		}
	}
}

func TestAllPairsDeliveryProperty(t *testing.T) {
	for _, n := range []int{4, 16, 64} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			f := func(srcRaw, dstRaw uint8, randomUp bool) bool {
				src, dst := int(srcRaw)%n, int(dstRaw)%n
				if src == dst {
					return true
				}
				eng := des.NewEngine()
				fab, err := New(eng, DefaultConfig(n))
				if err != nil {
					return false
				}
				delivered := false
				fab.Attach(dst, func(p *Packet) { delivered = p.Src == src })
				p := &Packet{RandomUp: randomUp, Payload: []uint32{1, 2}}
				fab.RouteFor(p, src, dst)
				fab.Inject(src, p)
				eng.Run()
				return delivered
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFIFOOrderingSamePair(t *testing.T) {
	eng, fab, got := testFabric(t, 16)
	const n = 50
	for i := 0; i < n; i++ {
		fab.Inject(3, mkPacket(fab, 3, 12, 2+i%21, uint16(i)))
	}
	eng.Run()
	if len(*got) != n {
		t.Fatalf("delivered %d of %d", len(*got), n)
	}
	for i, p := range *got {
		if int(p.Tag) != i {
			t.Fatalf("FIFO violated: packet %d arrived in slot %d", p.Tag, i)
		}
	}
}

func TestHighPriorityOvertakesLow(t *testing.T) {
	eng, fab, got := testFabric(t, 16)
	// Saturate the src->dst path with low-priority packets, then inject
	// one high-priority packet: it must not be blocked behind all of
	// them at the queues.
	for i := 0; i < 20; i++ {
		fab.Inject(0, mkPacket(fab, 0, 5, MaxPayloadWords, uint16(i)))
	}
	hi := mkPacket(fab, 0, 5, 2, 999)
	hi.Pri = High
	fab.Inject(0, hi)
	eng.Run()
	pos := -1
	for i, p := range *got {
		if p.Tag == 999 {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("high-priority packet lost")
	}
	if pos > 2 {
		t.Fatalf("high-priority packet delivered in slot %d; should overtake the low-priority backlog", pos)
	}
}

func TestLatencyMatchesCutThroughModel(t *testing.T) {
	eng, fab, _ := testFabric(t, 16)
	var arrived units.Time
	fab.Attach(13, func(p *Packet) { arrived = eng.Now() })
	p := mkPacket(fab, 0, 13, 2, 1) // 8-byte payload, 20 wire bytes
	fab.Inject(0, p)
	eng.Run()
	hops := fab.HopsBetween(0, 13)
	want := units.Time(hops-1)*(RouterLatency+LinkBandwidth.Transfer(HeaderBytes)) +
		RouterLatency + LinkBandwidth.Transfer(p.WireBytes())
	if arrived != want {
		t.Fatalf("latency = %v, want %v (hops=%d)", arrived, want, hops)
	}
	if arrived > 2*units.Microsecond {
		t.Fatalf("small-packet latency %v is implausibly high", arrived)
	}
}

func TestLinkBandwidthLimitsThroughput(t *testing.T) {
	eng, fab, got := testFabric(t, 16)
	// Stream 1000 max-size packets between one pair: sustained payload
	// rate is bounded by the 150 MB/s link and the 12/100 header+CRC
	// overhead: 88/100 * 150 = 132 MB/s payload.
	const n = 1000
	for i := 0; i < n; i++ {
		fab.Inject(2, mkPacket(fab, 2, 9, MaxPayloadWords, uint16(i%2048)))
	}
	eng.Run()
	if len(*got) != n {
		t.Fatalf("delivered %d", len(*got))
	}
	elapsed := eng.Now()
	payload := n * MaxPayloadBytes
	bw := units.Rate(payload, elapsed)
	if bw.MBperSec() < 125 || bw.MBperSec() > 135 {
		t.Fatalf("sustained payload bandwidth %.1f MB/s, want ~132", bw.MBperSec())
	}
}

func TestDisjointPairsDoNotContend(t *testing.T) {
	// Paper §4.1: the fat tree handles multiple simultaneous transfers
	// with undiminished pair-wise bandwidth.  Endpoints under distinct
	// leaf routers with distinct up paths must each see full bandwidth.
	timeFor := func(pairs [][2]int) units.Time {
		eng := des.NewEngine()
		fab, err := New(eng, DefaultConfig(16))
		if err != nil {
			t.Fatal(err)
		}
		for ep := 0; ep < 16; ep++ {
			fab.Attach(ep, func(p *Packet) {})
		}
		for _, pr := range pairs {
			for i := 0; i < 200; i++ {
				fab.Inject(pr[0], mkPacket(fab, pr[0], pr[1], MaxPayloadWords, 7))
			}
		}
		eng.Run()
		return eng.Now()
	}
	single := timeFor([][2]int{{0, 4}})
	quad := timeFor([][2]int{{0, 4}, {1, 5}, {2, 6}, {3, 7}})
	// Within-pair bandwidth must be essentially unchanged; allow a tiny
	// margin for path-length differences.
	if quad > single*5/4 {
		t.Fatalf("four disjoint pairs took %v vs %v for one: fabric contends where it should not", quad, single)
	}
}

func TestCorruptPacketDroppedAtRouter(t *testing.T) {
	eng, fab, got := testFabric(t, 16)
	p := mkPacket(fab, 0, 13, 4, 1)
	p.Corrupt()
	fab.Inject(0, p)
	good := mkPacket(fab, 0, 13, 4, 2)
	fab.Inject(0, good)
	eng.Run()
	if len(*got) != 1 || (*got)[0].Tag != 2 {
		t.Fatalf("expected only the good packet, got %d packets", len(*got))
	}
	if fab.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", fab.Stats().Dropped)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, fab, _ := testFabric(t, 16)
	fab.Inject(1, mkPacket(fab, 1, 2, 10, 0))
	fab.Inject(2, mkPacket(fab, 2, 3, 22, 0))
	eng.Run()
	s := fab.Stats()
	if s.Packets != 2 {
		t.Fatalf("Packets = %d", s.Packets)
	}
	if s.PayloadBytes != 40+88 {
		t.Fatalf("PayloadBytes = %d", s.PayloadBytes)
	}
	if s.WireBytes != (2+10+1)*4+(2+22+1)*4 {
		t.Fatalf("WireBytes = %d", s.WireBytes)
	}
}

func TestHopsBetween(t *testing.T) {
	eng := des.NewEngine()
	fab, err := New(eng, DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if got := fab.HopsBetween(0, 1); got != 2 {
		t.Fatalf("same-leaf hops = %d, want 2 (inject+eject)", got)
	}
	if got := fab.HopsBetween(0, 15); got != 4 {
		t.Fatalf("cross-tree hops = %d, want 4", got)
	}
	_ = eng
}

func TestSameLeafPacketStaysLocal(t *testing.T) {
	// Endpoints 0 and 1 share a leaf router: no up hops, so the root
	// stage must see no traffic.  We verify via latency: one router
	// stage cheaper than a cross-tree route.
	eng, fab, _ := testFabric(t, 16)
	var local, far units.Time
	fab.Attach(1, func(p *Packet) { local = eng.Now() })
	fab.Attach(15, func(p *Packet) { far = eng.Now() })
	fab.Inject(0, mkPacket(fab, 0, 1, 2, 1))
	eng.Run()
	start := eng.Now()
	fab.Inject(0, mkPacket(fab, 0, 15, 2, 2))
	eng.Run()
	far -= start
	if local >= far {
		t.Fatalf("same-leaf latency %v not below cross-tree latency %v", local, far)
	}
}

func TestInvalidConfigs(t *testing.T) {
	eng := des.NewEngine()
	if _, err := New(eng, DefaultConfig(0)); err == nil {
		t.Fatal("0 endpoints accepted")
	}
	cfg := DefaultConfig(5000) // needs 7 levels > header capacity
	if _, err := New(eng, cfg); err == nil {
		t.Fatal("oversized tree accepted")
	}
	cfg = DefaultConfig(8)
	cfg.Faults = fault.NewPlan(fault.Config{Outages: []fault.Outage{{Link: "bad"}}})
	if _, err := New(eng, cfg); err == nil {
		t.Fatal("an outage matching no link accepted")
	}
}

func TestRouteForDeterministicPerPair(t *testing.T) {
	eng := des.NewEngine()
	fab, _ := New(eng, DefaultConfig(16))
	a := &Packet{Payload: []uint32{1, 2}}
	b := &Packet{Payload: []uint32{3, 4}}
	fab.RouteFor(a, 3, 14)
	fab.RouteFor(b, 3, 14)
	if a.UpDigits != b.UpDigits || a.UpSteps != b.UpSteps {
		t.Fatal("same pair produced different paths; FIFO guarantee would break")
	}
}

// TestRandomUpRouteSpreadsHotspot compares deterministic source-digit
// up-routing against the hardware's adaptive random mode under a
// traffic pattern engineered to collide on an up-link: many flows from
// the same source to distinct far destinations.  Random routing must
// not be catastrophically worse, and both must deliver everything.
func TestRandomUpRouteSpreadsHotspot(t *testing.T) {
	run := func(random bool) units.Time {
		eng := des.NewEngine()
		fab, err := New(eng, DefaultConfig(16))
		if err != nil {
			t.Fatal(err)
		}
		delivered := 0
		for ep := 0; ep < 16; ep++ {
			fab.Attach(ep, func(p *Packet) { delivered++ })
		}
		// Four sources on one leaf each blast a far destination.
		for burst := 0; burst < 100; burst++ {
			for src := 0; src < 4; src++ {
				p := &Packet{RandomUp: random, Payload: make([]uint32, MaxPayloadWords)}
				fab.RouteFor(p, src, 12+src)
				fab.Inject(src, p)
			}
		}
		eng.Run()
		if delivered != 400 {
			t.Fatalf("delivered %d of 400", delivered)
		}
		return eng.Now()
	}
	det := run(false)
	rnd := run(true)
	t.Logf("hotspot drain: deterministic=%v random=%v", det, rnd)
	// Deterministic source-digit routing is conflict-free here; random
	// suffers some collisions but must stay within ~3x.
	if rnd > det*3 {
		t.Fatalf("random up-routing degraded %.1fx over deterministic", float64(rnd)/float64(det))
	}
}

// TestPriorityUnderSaturation: with the low-priority plane saturated
// end to end, a stream of high-priority packets must maintain bounded
// latency (the §2.2 guarantee the library's control messages rely on).
func TestPriorityUnderSaturation(t *testing.T) {
	eng := des.NewEngine()
	fab, err := New(eng, DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	var hiLat []units.Time
	sent := map[*Packet]units.Time{}
	for ep := 0; ep < 16; ep++ {
		fab.Attach(ep, func(p *Packet) {
			if p.Pri == High {
				hiLat = append(hiLat, eng.Now()-sent[p])
			}
		})
	}
	// Saturate 0->15 with low-priority bulk.
	for i := 0; i < 500; i++ {
		p := &Packet{Payload: make([]uint32, MaxPayloadWords)}
		fab.RouteFor(p, 0, 15)
		fab.Inject(0, p)
	}
	// Inject high-priority probes along the same path, spaced out.
	for i := 0; i < 20; i++ {
		i := i
		eng.Schedule(units.Time(i)*20*units.Microsecond, func() {
			p := &Packet{Pri: High, Payload: []uint32{1, 2}}
			fab.RouteFor(p, 0, 15)
			sent[p] = eng.Now()
			fab.Inject(0, p)
		})
	}
	eng.Run()
	if len(hiLat) != 20 {
		t.Fatalf("high-priority probes delivered: %d", len(hiLat))
	}
	for i, l := range hiLat {
		// Worst case: one max-size packet in transmission per hop ahead
		// of the probe, not the whole 500-packet backlog.
		if l > 10*units.Microsecond {
			t.Fatalf("probe %d latency %v under low-priority saturation", i, l)
		}
	}
}
