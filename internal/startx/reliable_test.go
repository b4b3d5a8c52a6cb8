package startx

import (
	"fmt"
	"testing"

	"hyades/internal/arctic"
	"hyades/internal/des"
	"hyades/internal/fault"
	"hyades/internal/pci"
	"hyades/internal/units"
)

// relRig builds an n-NIU machine with the given fault plan injected
// into the fabric, which switches the reliable channel on.
func relRig(t *testing.T, n int, fc fault.Config) (*des.Engine, []*NIU) {
	t.Helper()
	eng := des.NewEngine()
	acfg := arctic.DefaultConfig(n)
	acfg.Faults = fault.NewPlan(fc)
	fab, err := arctic.New(eng, acfg)
	if err != nil {
		t.Fatal(err)
	}
	nius := make([]*NIU, n)
	for i := 0; i < n; i++ {
		nius[i] = New(eng, pci.NewBus(eng), fab, i)
	}
	return eng, nius
}

func TestReliablePIOInOrderUnderDrops(t *testing.T) {
	const msgs = 200
	eng, nius := relRig(t, 2, fault.Config{Seed: 11, DropRate: 0.05})
	eng.Spawn("tx", func(p *des.Proc) {
		for i := 0; i < msgs; i++ {
			nius[0].PIOSend(p, 1, i%0x3ff, []uint32{uint32(i), ^uint32(i)}, arctic.Low)
			p.Delay(500 * units.Nanosecond)
		}
	})
	var got []uint32
	eng.Spawn("rx", func(p *des.Proc) {
		for i := 0; i < msgs; i++ {
			m := nius[1].PIORecv(p, arctic.Low)
			got = append(got, m.Words[0])
		}
	})
	eng.Run()
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d messages", len(got), msgs)
	}
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("message %d carries payload %d: order or dedup broken", i, v)
		}
	}
	if nius[0].Rel.Retransmits == 0 {
		t.Fatalf("a 5%% drop rate produced zero retransmits")
	}
	if eng.Blocked() != 0 {
		t.Fatalf("%d processes still blocked", eng.Blocked())
	}
}

func TestReliableVITransferUnderDrops(t *testing.T) {
	eng, nius := relRig(t, 2, fault.Config{Seed: 5, DropRate: 0.05})
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	var got Transfer
	eng.Spawn("tx", func(p *des.Proc) { nius[0].DMASend(p, 1, 9, data, arctic.Low) })
	eng.Spawn("rx", func(p *des.Proc) { got = nius[1].VIRecv(p) })
	eng.Run()
	if got.Tag != 9 || len(got.Data) != len(data) {
		t.Fatalf("transfer = tag %d, %d bytes", got.Tag, len(got.Data))
	}
	for i := range data {
		if got.Data[i] != data[i] {
			t.Fatalf("data[%d] corrupted", i)
		}
	}
	if eng.Blocked() != 0 {
		t.Fatalf("%d processes still blocked", eng.Blocked())
	}
}

func TestReliableRecoversCorruption(t *testing.T) {
	eng, nius := relRig(t, 2, fault.Config{Seed: 23, CorruptRate: 0.05})
	const msgs = 100
	eng.Spawn("tx", func(p *des.Proc) {
		for i := 0; i < msgs; i++ {
			nius[0].PIOSend(p, 1, 1, []uint32{uint32(i), 0}, arctic.Low)
			p.Delay(units.Microsecond)
		}
	})
	n := 0
	eng.Spawn("rx", func(p *des.Proc) {
		for i := 0; i < msgs; i++ {
			m := nius[1].PIORecv(p, arctic.Low)
			if m.Corrupt {
				t.Errorf("corrupted message %d leaked through the reliable layer", i)
			}
			n++
		}
	})
	eng.Run()
	if n != msgs {
		t.Fatalf("delivered %d of %d", n, msgs)
	}
}

func TestPermanentOutageDeclaresUnreachable(t *testing.T) {
	eng, nius := relRig(t, 2, fault.Config{
		Outages: []fault.Outage{{Link: "inject(0)", From: 0}},
	})
	var info UnreachableInfo
	calls := 0
	nius[0].OnUnreachable = func(u UnreachableInfo) {
		info = u
		calls++
		eng.Fail(fmt.Errorf("%s", u))
	}
	eng.Spawn("tx", func(p *des.Proc) {
		nius[0].PIOSend(p, 1, 0x2a, []uint32{1, 2}, arctic.Low)
	})
	eng.Run()
	if calls != 1 {
		t.Fatalf("OnUnreachable called %d times, want 1", calls)
	}
	if info.Peer != 1 || info.Local != 0 || info.Seq != 0 || info.Tag != 0x2a {
		t.Fatalf("diagnostics = %+v", info)
	}
	if info.Retries != DefaultRelRetryBudget {
		t.Fatalf("Retries = %d, want the %d budget", info.Retries, DefaultRelRetryBudget)
	}
	if eng.Err() == nil {
		t.Fatalf("engine did not record the failure")
	}
	// Bounded virtual time: the backoff schedule sums to well under a
	// simulated minute.
	if eng.Now() > units.Minute {
		t.Fatalf("unreachable declared only after %v", eng.Now())
	}
}

func TestUnreachableDefaultFailsEngine(t *testing.T) {
	eng, nius := relRig(t, 2, fault.Config{
		Outages: []fault.Outage{{Link: "inject(0)", From: 0}},
	})
	eng.Spawn("tx", func(p *des.Proc) {
		nius[0].PIOSend(p, 1, 1, []uint32{1, 2}, arctic.Low)
	})
	eng.Run()
	if eng.Err() == nil {
		t.Fatalf("no OnUnreachable hook and no engine failure either")
	}
}

func TestReliableOffAddsZeroPackets(t *testing.T) {
	// The acceptance bar for the fault-free path: on a fabric without
	// a fault plan the layer must add no packets and no virtual time.
	// A zero-rate plan switches the layer on without losing a packet.
	run := func(reliable bool) (int64, units.Time, uint64) {
		eng := des.NewEngine()
		acfg := arctic.DefaultConfig(2)
		if reliable {
			acfg.Faults = fault.NewPlan(fault.Config{})
		}
		fab, err := arctic.New(eng, acfg)
		if err != nil {
			t.Fatal(err)
		}
		var nius [2]*NIU
		for i := 0; i < 2; i++ {
			nius[i] = New(eng, pci.NewBus(eng), fab, i)
		}
		eng.Spawn("tx", func(p *des.Proc) {
			for i := 0; i < 10; i++ {
				nius[0].PIOSend(p, 1, 1, []uint32{uint32(i), 0}, arctic.Low)
			}
		})
		eng.Spawn("rx", func(p *des.Proc) {
			for i := 0; i < 10; i++ {
				nius[1].PIORecv(p, arctic.Low)
			}
		})
		eng.Run()
		return fab.Stats().Packets, eng.Now(), eng.Events()
	}
	basePkts, baseNow, _ := run(false)
	relPkts, _, _ := run(true)
	if relPkts == basePkts {
		t.Fatalf("sanity: reliable run should add ACK packets (%d vs %d)", relPkts, basePkts)
	}
	// And the off-switch is the true baseline: rerun must be identical.
	againPkts, againNow, _ := run(false)
	if againPkts != basePkts || againNow != baseNow {
		t.Fatalf("unreliable runs disagree with themselves")
	}
}

func TestReliableStatsAccounting(t *testing.T) {
	eng, nius := relRig(t, 2, fault.Config{Seed: 2, DropRate: 0.1})
	const msgs = 100
	eng.Spawn("tx", func(p *des.Proc) {
		for i := 0; i < msgs; i++ {
			nius[0].PIOSend(p, 1, 1, []uint32{uint32(i), 0}, arctic.Low)
			p.Delay(units.Microsecond)
		}
	})
	eng.Spawn("rx", func(p *des.Proc) {
		for i := 0; i < msgs; i++ {
			nius[1].PIORecv(p, arctic.Low)
		}
	})
	eng.Run()
	tx, rx := nius[0].Rel, nius[1].Rel
	if tx.DataPackets != msgs {
		t.Fatalf("DataPackets = %d, want %d", tx.DataPackets, msgs)
	}
	if tx.Retransmits == 0 || tx.Timeouts == 0 {
		t.Fatalf("10%% drops but Retransmits=%d Timeouts=%d", tx.Retransmits, tx.Timeouts)
	}
	if rx.AcksSent == 0 {
		t.Fatalf("receiver sent no ACKs")
	}
	if rx.GapDropped == 0 {
		t.Fatalf("10%% drops but the receiver saw no sequence gaps")
	}
}

func TestDuplicateSuppressionWhenAcksLost(t *testing.T) {
	// Take down only the ACK return path (node 1's inject link) past
	// the first RTO: the data is delivered, the sender can't learn it,
	// and every retransmission must be suppressed as a duplicate.
	eng, nius := relRig(t, 2, fault.Config{
		Outages: []fault.Outage{{Link: "inject(1)", From: 0, Until: 700 * units.Microsecond}},
	})
	var got Message
	eng.Spawn("tx", func(p *des.Proc) {
		nius[0].PIOSend(p, 1, 1, []uint32{7, 8}, arctic.Low)
	})
	eng.Spawn("rx", func(p *des.Proc) { got = nius[1].PIORecv(p, arctic.Low) })
	eng.Run()
	if len(got.Words) != 2 || got.Words[0] != 7 {
		t.Fatalf("message not delivered: %+v", got)
	}
	if nius[1].Rel.DupSuppressed == 0 {
		t.Fatalf("lost ACKs produced no suppressed duplicates")
	}
	if eng.Err() != nil {
		t.Fatalf("transient ACK outage escalated to %v", eng.Err())
	}
	if eng.Blocked() != 0 {
		t.Fatalf("%d processes still blocked", eng.Blocked())
	}
}
