package pci

import (
	"testing"

	"hyades/internal/des"
	"hyades/internal/units"
)

func TestPublishedConstants(t *testing.T) {
	if MMapReadLatency != 930*units.Nanosecond {
		t.Errorf("mmap read = %v, paper 0.93us", MMapReadLatency)
	}
	if MMapWriteLatency != 180*units.Nanosecond {
		t.Errorf("mmap write = %v, paper 0.18us", MMapWriteLatency)
	}
	if DMABandwidth != 120*units.MBps {
		t.Errorf("DMA bandwidth = %v, paper 120MB/s", DMABandwidth)
	}
}

func TestMMapAccessCosts(t *testing.T) {
	eng := des.NewEngine()
	bus := NewBus(eng)
	var after units.Time
	eng.Spawn("p", func(p *des.Proc) {
		bus.MMapRead(p)
		bus.MMapWriteN(p, 2)
		bus.MMapReadN(p, 3)
		after = p.Now()
	})
	eng.Run()
	want := 930*units.Nanosecond + 2*180*units.Nanosecond + 3*930*units.Nanosecond
	if after != want {
		t.Fatalf("access cost = %v, want %v", after, want)
	}
	if bus.Reads != 4 || bus.Writes != 2 {
		t.Fatalf("counters: %d reads, %d writes", bus.Reads, bus.Writes)
	}
}

func TestDMASerializes(t *testing.T) {
	eng := des.NewEngine()
	bus := NewBus(eng)
	// Two overlapping 120-byte transfers: each takes 1us at 120 MB/s,
	// and the second must queue behind the first.
	s1, e1 := bus.DMA(0, 120)
	if s1 != 0 || e1 != units.Microsecond {
		t.Fatalf("first burst [%v,%v]", s1, e1)
	}
	s2, e2 := bus.DMA(0, 120)
	if s2 != units.Microsecond || e2 != 2*units.Microsecond {
		t.Fatalf("second burst [%v,%v], want queued", s2, e2)
	}
	if bus.DMABytes != 240 {
		t.Fatalf("DMABytes = %d", bus.DMABytes)
	}
	if bus.DMAFreeAt() != 2*units.Microsecond {
		t.Fatalf("FreeAt = %v", bus.DMAFreeAt())
	}
}

func TestDMASustainedRate(t *testing.T) {
	eng := des.NewEngine()
	bus := NewBus(eng)
	var end units.Time
	for i := 0; i < 1000; i++ {
		_, end = bus.DMA(0, 96)
	}
	rate := units.Rate(96*1000, end)
	if mb := rate.MBperSec(); mb < 119 || mb > 121 {
		t.Fatalf("sustained DMA = %.1f MB/s, want 120", mb)
	}
}
