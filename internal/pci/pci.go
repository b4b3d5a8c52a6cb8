// Package pci models the 32-bit 33-MHz PCI environment of a Hyades SMP
// node (paper §2.1).
//
// The paper identifies three host I/O characteristics that "directly
// govern the performance of interprocessor communication":
//
//   - the latency of an 8-byte read of an uncached memory-mapped PCI
//     device register: 0.93 us;
//   - the minimum latency between back-to-back 8-byte writes: 0.18 us;
//   - sustained DMA by a PCI device: over 120 MByte/sec.
//
// Processor-side accesses (MMapRead/MMapWrite) stall the calling
// simulated processor.  Device-side DMA claims the bus as a serially
// reusable resource, so concurrent DMA streams on one node share the
// 120 MB/s.
package pci

import (
	"hyades/internal/des"
	"hyades/internal/units"
)

// The published host I/O costs.
const (
	MMapReadLatency  = 930 * units.Nanosecond // uncached 8-byte register read
	MMapWriteLatency = 180 * units.Nanosecond // back-to-back 8-byte register write
	DMABandwidth     = 120 * units.MBps       // sustained device DMA rate
)

// Bus is one node's PCI bus.
type Bus struct {
	eng *des.Engine
	dma des.Resource

	// Counters for tests and reports.
	Reads, Writes int64
	DMABytes      int64
}

// NewBus creates a bus on engine e.
func NewBus(e *des.Engine) *Bus {
	return &Bus{eng: e}
}

// ChargeReads counts n back-to-back uncached 8-byte register reads and
// returns the processor stall they cost.  A step function takes the
// stall itself (des.Proc.StepDelay); process code calls MMapReadN.
func (b *Bus) ChargeReads(n int) units.Time {
	b.Reads += int64(n)
	return units.Time(n) * MMapReadLatency
}

// ChargeWrites counts n back-to-back 8-byte register writes and returns
// the processor stall they cost.
func (b *Bus) ChargeWrites(n int) units.Time {
	b.Writes += int64(n)
	return units.Time(n) * MMapWriteLatency
}

// MMapRead stalls the calling processor for one uncached 8-byte register
// read and returns.
func (b *Bus) MMapRead(p *des.Proc) { p.Delay(b.ChargeReads(1)) }

// MMapReadN performs n back-to-back register reads.
func (b *Bus) MMapReadN(p *des.Proc, n int) { p.Delay(b.ChargeReads(n)) }

// MMapWriteN performs n back-to-back register writes.
func (b *Bus) MMapWriteN(p *des.Proc, n int) { p.Delay(b.ChargeWrites(n)) }

// DMA reserves the bus for a device transfer of n bytes that becomes
// ready at the given time, returning when the burst starts and ends.
// It never blocks; device models chain events from the returned times.
func (b *Bus) DMA(ready units.Time, n int) (start, end units.Time) {
	b.DMABytes += int64(n)
	return b.dma.Claim(ready, DMABandwidth.Transfer(n))
}

// DMAFreeAt reports when the bus next becomes idle for DMA.
func (b *Bus) DMAFreeAt() units.Time { return b.dma.FreeAt() }
