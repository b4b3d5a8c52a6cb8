package arctic

import (
	"fmt"
	"testing"

	"hyades/internal/des"
	"hyades/internal/fault"
	"hyades/internal/units"
)

// contend injects one long low-priority packet and, while it still
// holds the injection link, a low-priority packet and then, in one
// event, a high- and another low-priority packet behind it; a last one
// follows long after the link has gone idle.
func contend(t *testing.T, fc fault.Config) (string, des.Counters) {
	t.Helper()
	eng, fab, _ := faultFabric(t, 16, fc)
	var log string
	for ep := 0; ep < 16; ep++ {
		fab.Attach(ep, func(p *Packet) { log += fmt.Sprintf("%d@%d ", p.Tag, eng.Now()) })
	}
	fab.Inject(0, mkPacket(fab, 0, 5, MaxPayloadWords, 1))
	eng.Schedule(100*units.Nanosecond, func() { fab.Inject(0, mkPacket(fab, 0, 5, 4, 2)) })
	eng.Schedule(200*units.Nanosecond, func() {
		hi := mkPacket(fab, 0, 5, 2, 3)
		hi.Pri = High
		fab.Inject(0, hi)
		fab.Inject(0, mkPacket(fab, 0, 5, 2, 5))
	})
	eng.Schedule(50*units.Microsecond, func() { fab.Inject(0, mkPacket(fab, 0, 5, 2, 4)) })
	eng.Run()
	s := fab.Stats()
	return fmt.Sprintf("%sevents=%d now=%d lost=%d", log, eng.Events(), eng.Now(), s.FaultDropped+s.OutageDropped), eng.Counters()
}

// A link queues its free event only when a packet is waiting for it.
// The delivery times, the event count and the final clock below were
// recorded from the tree before that change, when every transmission
// queued one: they may not move.
func TestTwoPacketsBehindABusyLink(t *testing.T) {
	for _, c := range []struct {
		name string
		fc   fault.Config
		want string
	}{
		{"pristine", fault.Config{}, "1@1426666 3@1559999 2@1746666 5@1879999 4@50893332 events=43 now=50893332 lost=0"},
		// Every packet is lost at the injection link, each still holding
		// the wire for its length: the drop branch's free event.
		{"drop", fault.Config{Seed: 3, DropRate: 1}, "events=8 now=50133333 lost=5"},
		// The injection link is down while the first three arrive: the
		// outage branch's zero-delay free event, chained.
		{"outage", fault.Config{Outages: []fault.Outage{{Link: "inject(0)", From: 0, Until: 10 * units.Microsecond}}},
			"4@50893332 events=15 now=50893332 lost=4"},
	} {
		got, n := contend(t, c.fc)
		if got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
		// Each case must meet both outcomes: free events that nothing
		// needed and free events that a queued packet did.
		if n.SlotsMaterialised == 0 || n.SlotsReserved <= n.SlotsMaterialised {
			t.Errorf("%s: slots reserved %d, materialised %d", c.name, n.SlotsReserved, n.SlotsMaterialised)
		}
	}
}
