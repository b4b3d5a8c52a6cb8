package startx

import (
	"testing"

	"hyades/internal/arctic"
	"hyades/internal/des"
	"hyades/internal/pci"
	"hyades/internal/units"
)

// rig builds a two-NIU test machine.
func rig(t *testing.T) (*des.Engine, [2]*NIU) {
	t.Helper()
	eng := des.NewEngine()
	fab, err := arctic.New(eng, arctic.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var nius [2]*NIU
	for i := 0; i < 2; i++ {
		nius[i] = New(eng, pci.NewBus(eng), fab, i)
	}
	return eng, nius
}

func TestPIOSendRecvDeliversPayload(t *testing.T) {
	eng, nius := rig(t)
	payload := []uint32{0xaabbccdd, 42, 7}
	var got Message
	eng.Spawn("tx", func(p *des.Proc) {
		nius[0].PIOSend(p, 1, 0x123, payload, arctic.Low)
	})
	eng.Spawn("rx", func(p *des.Proc) {
		got = nius[1].PIORecv(p, arctic.Low)
	})
	eng.Run()
	if got.Src != 0 || got.Tag != 0x123 || len(got.Words) != 3 {
		t.Fatalf("message = %+v", got)
	}
	for i, w := range payload {
		if got.Words[i] != w {
			t.Fatalf("payload[%d] = %#x", i, got.Words[i])
		}
	}
	if got.Corrupt {
		t.Fatal("spurious corruption flag")
	}
}

func TestPIOCostModel(t *testing.T) {
	_, nius := rig(t)
	// Section 2.3: an 8-byte message is one header write plus one
	// payload write (0.36 us) to send, two reads (1.86 us) to receive.
	if got := nius[0].PIOSendCost(2); got != 360*units.Nanosecond {
		t.Errorf("send cost 8B = %v", got)
	}
	if got := nius[0].PIORecvCost(2); got != 1860*units.Nanosecond {
		t.Errorf("recv cost 8B = %v", got)
	}
	// 64-byte payload: 1 + 8 accesses each way.
	if got := nius[0].PIOSendCost(16); got != 9*180*units.Nanosecond {
		t.Errorf("send cost 64B = %v", got)
	}
	if got := nius[0].PIORecvCost(16); got != 9*930*units.Nanosecond {
		t.Errorf("recv cost 64B = %v", got)
	}
}

func TestPIOPriorityQueuesIndependent(t *testing.T) {
	eng, nius := rig(t)
	var hiTag, loTag int
	eng.Spawn("tx", func(p *des.Proc) {
		nius[0].PIOSend(p, 1, 1, []uint32{0, 0}, arctic.Low)
		nius[0].PIOSend(p, 1, 2, []uint32{0, 0}, arctic.High)
	})
	eng.Spawn("rx", func(p *des.Proc) {
		// Draining the high queue first must yield the high message
		// even though the low one was sent first.
		hi := nius[1].PIORecv(p, arctic.High)
		lo := nius[1].PIORecv(p, arctic.Low)
		hiTag, loTag = hi.Tag, lo.Tag
	})
	eng.Run()
	if hiTag != 2 || loTag != 1 {
		t.Fatalf("priority dispatch: hi=%d lo=%d", hiTag, loTag)
	}
}

func TestTryPIORecvPollCost(t *testing.T) {
	eng, nius := rig(t)
	var emptyCost, fullOK bool
	eng.Spawn("rx", func(p *des.Proc) {
		t0 := p.Now()
		_, ok := nius[1].TryPIORecv(p, arctic.Low)
		emptyCost = !ok && p.Now()-t0 == 930*units.Nanosecond
		p.Delay(10 * units.Microsecond)
		_, ok = nius[1].TryPIORecv(p, arctic.Low)
		fullOK = ok
	})
	eng.Spawn("tx", func(p *des.Proc) {
		nius[0].PIOSend(p, 1, 1, []uint32{1, 2}, arctic.Low)
	})
	eng.Run()
	if !emptyCost {
		t.Error("empty poll did not cost one status read")
	}
	if !fullOK {
		t.Error("poll after arrival failed")
	}
}

func TestDMATransfersData(t *testing.T) {
	eng, nius := rig(t)
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	var got Transfer
	eng.Spawn("tx", func(p *des.Proc) {
		nius[0].DMASend(p, 1, 0x55, data, arctic.Low)
	})
	eng.Spawn("rx", func(p *des.Proc) {
		got = nius[1].VIRecv(p)
	})
	eng.Run()
	if got.Src != 0 || got.Tag != 0x55 {
		t.Fatalf("transfer meta = %+v", got)
	}
	if len(got.Data) != len(data) {
		t.Fatalf("got %d bytes", len(got.Data))
	}
	for i := range data {
		if got.Data[i] != data[i] {
			t.Fatalf("byte %d = %d", i, got.Data[i])
		}
	}
}

func TestDMAKickCostOnly(t *testing.T) {
	eng, nius := rig(t)
	var stall units.Time
	eng.Spawn("tx", func(p *des.Proc) {
		t0 := p.Now()
		nius[0].DMASend(p, 1, 1, make([]byte, 100_000), arctic.Low)
		stall = p.Now() - t0
	})
	eng.Spawn("rx", func(p *des.Proc) { nius[1].VIRecv(p) })
	eng.Run()
	// The caller only pays the descriptor + doorbell writes; the
	// engine streams asynchronously.
	if stall != 2*180*units.Nanosecond {
		t.Fatalf("DMA kick stalled the processor %v", stall)
	}
}

func TestDMASustainedPayloadRate(t *testing.T) {
	eng, nius := rig(t)
	const n = 512 * 1024
	var done units.Time
	eng.Spawn("tx", func(p *des.Proc) {
		nius[0].DMASend(p, 1, 1, make([]byte, n), arctic.Low)
	})
	eng.Spawn("rx", func(p *des.Proc) {
		nius[1].VIRecv(p)
		done = p.Now()
	})
	eng.Run()
	// Peak VI payload bandwidth is 88/96 of the 120 MB/s PCI rate:
	// 110 MB/s (paper §2.3).
	bw := units.Rate(n, done).MBperSec()
	if bw < 105 || bw > 112 {
		t.Fatalf("sustained VI rate = %.1f MB/s, want ~110", bw)
	}
}

func TestDMAQueuedTransfersFIFO(t *testing.T) {
	eng, nius := rig(t)
	var tags []int
	eng.Spawn("tx", func(p *des.Proc) {
		for i := 0; i < 3; i++ {
			nius[0].DMASend(p, 1, i, make([]byte, 500), arctic.Low)
		}
	})
	eng.Spawn("rx", func(p *des.Proc) {
		for i := 0; i < 3; i++ {
			tags = append(tags, nius[1].VIRecv(p).Tag)
		}
	})
	eng.Run()
	for i, tag := range tags {
		if tag != i {
			t.Fatalf("transfer order %v", tags)
		}
	}
}

func TestInvalidArgumentsPanic(t *testing.T) {
	eng, nius := rig(t)
	mustPanic := func(name string, fn func(p *des.Proc)) {
		eng.Spawn(name, func(p *des.Proc) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn(p)
		})
	}
	mustPanic("shortPayload", func(p *des.Proc) {
		nius[0].PIOSend(p, 1, 1, []uint32{1}, arctic.Low)
	})
	mustPanic("bigTag", func(p *des.Proc) {
		nius[0].PIOSend(p, 1, MaxTag+1, []uint32{1, 2}, arctic.Low)
	})
	mustPanic("emptyDMA", func(p *des.Proc) {
		nius[0].DMASend(p, 1, 1, nil, arctic.Low)
	})
	eng.Run()
}

func TestOnPIODeliverHook(t *testing.T) {
	eng, nius := rig(t)
	fired := 0
	nius[1].OnPIODeliver = func() { fired++ }
	eng.Spawn("tx", func(p *des.Proc) {
		nius[0].PIOSend(p, 1, 1, []uint32{1, 2}, arctic.Low)
		nius[0].PIOSend(p, 1, 2, []uint32{3, 4}, arctic.Low)
	})
	eng.Run()
	if fired != 2 {
		t.Fatalf("hook fired %d times", fired)
	}
	if nius[1].VIPending() != 0 {
		t.Fatal("spurious VI transfer")
	}
}

func TestRemotePutOneSided(t *testing.T) {
	eng, nius := rig(t)
	nius[1].RegisterWindow(3, 256)
	data := []byte{1, 2, 3, 4, 5}
	var stall units.Time
	eng.Spawn("tx", func(p *des.Proc) {
		t0 := p.Now()
		nius[0].RemotePut(p, 1, 3, 10, data, arctic.Low)
		stall = p.Now() - t0
	})
	// No receiving process at all: the put is one-sided.
	eng.Run()
	buf, version := nius[1].Window(3)
	if version != 1 {
		t.Fatalf("version = %d", version)
	}
	for i, b := range data {
		if buf[10+i] != b {
			t.Fatalf("window[%d] = %d", 10+i, buf[10+i])
		}
	}
	if stall != 2*180*units.Nanosecond {
		t.Fatalf("initiator stalled %v; puts should cost only the DMA kick", stall)
	}
}

func TestRemotePutFIFOAndVersions(t *testing.T) {
	eng, nius := rig(t)
	nius[1].RegisterWindow(1, 8)
	eng.Spawn("tx", func(p *des.Proc) {
		for i := byte(1); i <= 4; i++ {
			nius[0].RemotePut(p, 1, 1, 0, []byte{i}, arctic.Low)
		}
	})
	eng.Run()
	buf, version := nius[1].Window(1)
	if version != 4 {
		t.Fatalf("version = %d", version)
	}
	if buf[0] != 4 {
		t.Fatalf("last writer = %d, want 4 (FIFO order)", buf[0])
	}
}

func TestRemotePutUnregisteredWindowDropped(t *testing.T) {
	eng, nius := rig(t)
	eng.Spawn("tx", func(p *des.Proc) {
		nius[0].RemotePut(p, 1, 9, 0, []byte{1}, arctic.Low)
	})
	eng.Run()
	if buf, v := nius[1].Window(9); buf != nil || v != 0 {
		t.Fatal("write to unregistered window was not dropped")
	}
}

func TestRemotePutDoesNotDisturbVI(t *testing.T) {
	eng, nius := rig(t)
	nius[1].RegisterWindow(2, 16)
	var tr Transfer
	eng.Spawn("tx", func(p *des.Proc) {
		nius[0].RemotePut(p, 1, 2, 0, []byte{7}, arctic.Low)
		nius[0].DMASend(p, 1, 5, []byte{8, 9}, arctic.Low)
	})
	eng.Spawn("rx", func(p *des.Proc) {
		tr = nius[1].VIRecv(p)
	})
	eng.Run()
	if tr.Tag != 5 || len(tr.Data) != 2 {
		t.Fatalf("VI transfer corrupted by interleaved put: %+v", tr)
	}
	if buf, _ := nius[1].Window(2); buf[0] != 7 {
		t.Fatal("put lost")
	}
}
