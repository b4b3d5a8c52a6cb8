package arctic

import (
	"strings"
	"testing"

	"hyades/internal/des"
	"hyades/internal/fault"
	"hyades/internal/units"
)

// faultFabric builds an n-endpoint fabric under the given fault config.
func faultFabric(t *testing.T, n int, fc fault.Config) (*des.Engine, *Fabric, *[]*Packet) {
	t.Helper()
	eng := des.NewEngine()
	cfg := DefaultConfig(n)
	cfg.Faults = fault.NewPlan(fc)
	fab, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Packet
	for ep := 0; ep < n; ep++ {
		fab.Attach(ep, func(p *Packet) { got = append(got, p) })
	}
	return eng, fab, &got
}

func TestCRCRecomputedOverWireWords(t *testing.T) {
	// Regression: checkCRC used to consult only the corrupted bool, so a
	// payload mutated after sealing sailed through every router stage.
	p := &Packet{Payload: []uint32{0xdead, 0xbeef}}
	p.Seal()
	if !p.checkCRC() {
		t.Fatalf("sealed packet fails its own CRC")
	}
	p.Payload[0] ^= 1 << 7
	if p.checkCRC() {
		t.Fatalf("hand-mutated payload passed the CRC check")
	}
	p.Payload[0] ^= 1 << 7
	if !p.checkCRC() {
		t.Fatalf("restored payload fails the CRC check")
	}
	p.Corrupt()
	if p.checkCRC() {
		t.Fatalf("corrupted fast path not honoured")
	}
}

func TestCloneIsPristine(t *testing.T) {
	p := &Packet{Payload: []uint32{1, 2, 3}, Rel: &RelHeader{Seq: 7}}
	p.Seal()
	p.Corrupt()
	q := p.Clone()
	if !q.checkCRC() || q.Corrupted() {
		t.Fatalf("clone of a corrupted packet is not pristine")
	}
	if q.Rel == p.Rel || q.Rel.Seq != 7 {
		t.Fatalf("Rel header not deep-copied")
	}
}

func TestMutatedPayloadDroppedAtRouter(t *testing.T) {
	eng, fab, got := faultFabric(t, 16, fault.Config{})
	p := mkPacket(fab, 0, 13, 4, 1)
	fab.Inject(0, p)
	p.Payload[2] ^= 0xffff // in-flight bit rot, no Corrupt() call
	eng.Run()
	if len(*got) != 0 {
		t.Fatalf("mutated packet was delivered")
	}
	if fab.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", fab.Stats().Dropped)
	}
}

func TestInjectedCorruptionCountsAndDrops(t *testing.T) {
	eng, fab, got := faultFabric(t, 16, fault.Config{Seed: 3, CorruptRate: 1})
	fab.Inject(0, mkPacket(fab, 0, 13, 4, 1))
	eng.Run()
	if len(*got) != 0 {
		t.Fatalf("corrupted packet was delivered")
	}
	s := fab.Stats()
	if s.FaultCorrupted == 0 {
		t.Fatalf("FaultCorrupted = 0, want > 0")
	}
	if s.Dropped == 0 {
		t.Fatalf("corruption did not trip a router CRC check")
	}
}

func TestInjectedDropIsSilent(t *testing.T) {
	eng, fab, got := faultFabric(t, 16, fault.Config{Seed: 3, DropRate: 1})
	fab.Inject(0, mkPacket(fab, 0, 13, 4, 1))
	eng.Run()
	if len(*got) != 0 {
		t.Fatalf("dropped packet was delivered")
	}
	s := fab.Stats()
	if s.FaultDropped == 0 {
		t.Fatalf("FaultDropped = 0, want > 0")
	}
	if s.Dropped != 0 {
		t.Fatalf("a silent drop must not look like a CRC drop (Dropped = %d)", s.Dropped)
	}
}

func TestUpLinkOutageFailsOver(t *testing.T) {
	// Endpoint 0 -> 13 needs two up hops.  Taking 0's deterministic
	// first up-link down forces the leaf router to pick another up port;
	// the fat-tree property says the packet still arrives.
	eng, fab, got := faultFabric(t, 16, fault.Config{
		Outages: []fault.Outage{{Link: "up(s0,0,p0)", From: 0}},
	})
	fab.Inject(0, mkPacket(fab, 0, 13, 4, 1))
	eng.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d packets, want 1 (fail-over did not mask the outage)", len(*got))
	}
	s := fab.Stats()
	if s.FailedOver == 0 {
		t.Fatalf("FailedOver = 0, want > 0")
	}
	if s.OutageDropped != 0 {
		t.Fatalf("OutageDropped = %d, want 0", s.OutageDropped)
	}
}

func TestAllUpLinksDownIsLoss(t *testing.T) {
	eng, fab, got := faultFabric(t, 16, fault.Config{
		Outages: []fault.Outage{{Link: "up(s0,0,*", From: 0}},
	})
	fab.Inject(0, mkPacket(fab, 0, 13, 4, 1))
	eng.Run()
	if len(*got) != 0 {
		t.Fatalf("packet delivered with every up-link down")
	}
	if fab.Stats().OutageDropped == 0 {
		t.Fatalf("OutageDropped = 0, want > 0")
	}
}

func TestDownLinkOutageIsLossNotMisroute(t *testing.T) {
	// The down path is deterministic, so an outage on it surfaces as
	// loss.  deliverToEndpoint panics on misrouting, so a quiet run with
	// zero deliveries is exactly the asserted behaviour.
	eng, fab, got := faultFabric(t, 16, fault.Config{
		Outages: []fault.Outage{{Link: "down(s1,*", From: 0}},
	})
	fab.Inject(0, mkPacket(fab, 0, 13, 4, 1))
	eng.Run()
	if len(*got) != 0 {
		t.Fatalf("packet delivered through a downed down-link")
	}
	s := fab.Stats()
	if s.OutageDropped == 0 {
		t.Fatalf("OutageDropped = 0, want > 0")
	}
	if s.FailedOver != 0 {
		t.Fatalf("down-phase must never fail over (FailedOver = %d)", s.FailedOver)
	}
}

func TestOutageWindowEndsAndTrafficResumes(t *testing.T) {
	eng, fab, got := faultFabric(t, 16, fault.Config{
		Outages: []fault.Outage{{Link: "inject(0)", From: 0, Until: 10 * units.Microsecond}},
	})
	fab.Inject(0, mkPacket(fab, 0, 13, 4, 1)) // lost in the window
	eng.Schedule(20*units.Microsecond, func() {
		fab.Inject(0, mkPacket(fab, 0, 13, 4, 2)) // after the window
	})
	eng.Run()
	if len(*got) != 1 || (*got)[0].Tag != 2 {
		t.Fatalf("got %d deliveries, want exactly the post-window packet", len(*got))
	}
}

// TestOutageMatchingNoLinkIsAnError: an outage pattern that selects no
// link of the fabric would inject nothing while the cluster still
// turned the reliable channel on.  New names every such pattern and
// none that matches.
func TestOutageMatchingNoLinkIsAnError(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Faults = fault.NewPlan(fault.Config{Outages: []fault.Outage{
		{Link: "bad"}, {Link: "inject(7)"}, {Link: "inject(99)"}, {Link: "up(s0,*"}, {Link: "up(s1,*"},
	}})
	_, err := New(des.NewEngine(), cfg)
	if err == nil {
		t.Fatal("outages matching no link accepted")
	}
	msg := err.Error()
	for _, p := range []string{`"bad"`, `"inject(99)"`, `"up(s1,*"`} {
		if !strings.Contains(msg, p) {
			t.Errorf("error %q does not name %s", msg, p)
		}
	}
	for _, p := range []string{`"inject(7)"`, `"up(s0,*"`} {
		if strings.Contains(msg, p) {
			t.Errorf("error %q names %s, which matches a link", msg, p)
		}
	}
}

func TestFaultFreePlanChangesNothing(t *testing.T) {
	// A present-but-empty fault plan must leave the timing and event
	// count of a run bit-identical to one with no plan at all.
	run := func(withPlan bool) (units.Time, uint64, int) {
		eng := des.NewEngine()
		cfg := DefaultConfig(16)
		if withPlan {
			cfg.Faults = fault.NewPlan(fault.Config{})
		}
		fab, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for ep := 0; ep < 16; ep++ {
			fab.Attach(ep, func(*Packet) { n++ })
		}
		for src := 0; src < 16; src++ {
			fab.Inject(src, mkPacket(fab, src, (src+5)%16, 8, uint16(src)))
		}
		eng.Run()
		return eng.Now(), eng.Events(), n
	}
	t1, e1, n1 := run(false)
	t2, e2, n2 := run(true)
	if t1 != t2 || e1 != e2 || n1 != n2 {
		t.Fatalf("empty plan perturbed the run: (%v,%d,%d) vs (%v,%d,%d)", t1, e1, n1, t2, e2, n2)
	}
}
