// Package node models one Hyades processing node: a two-way SMP with
// 400-MHz processors, 100-MHz SDRAM, a PCI bus and a StarT-X NIU
// (paper §2.1).
//
// Processors are discrete-event processes created by the cluster layer;
// this package carries the per-node cost parameters they charge against:
// memory-copy bandwidth (for packing halo data and moving it through the
// VI region or shared memory) and shared-memory semaphore costs (for the
// mix-mode primitives of §4.1/§4.2).
package node

import (
	"hyades/internal/des"
	"hyades/internal/pci"
	"hyades/internal/startx"
	"hyades/internal/units"
)

// Calibrated per-node costs.  The copy rates are calibrated (together
// with the per-row pack overheads in package comm) so the stand-alone
// exchange benchmarks land on the paper's measured texch values; the
// semaphore cost reproduces the ~1 us mix-mode global-sum penalty and
// the ~30% slave-exchange bandwidth loss.
const (
	// MemcpyBandwidth is the rate of a well-behaved cached block copy.
	MemcpyBandwidth = 300 * units.MBps
	// UncachedCopyBandwidth is the rate of a copy whose working set
	// misses the cache (large 3-D fields swept between exchanges).
	UncachedCopyBandwidth = 150 * units.MBps
	// SemaphoreCost is one shared-memory semaphore operation.
	SemaphoreCost = 300 * units.Nanosecond
)

// Node is one SMP.
type Node struct {
	ID  int
	Bus *pci.Bus
	NIU *startx.NIU
}

// New creates a node with its bus; the NIU is attached by the cluster.
func New(e *des.Engine, id int) *Node {
	return &Node{ID: id, Bus: pci.NewBus(e)}
}

// AttachNIU installs the node's network interface.
func (n *Node) AttachNIU(niu *startx.NIU) { n.NIU = niu }
