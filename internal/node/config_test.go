package node_test

import (
	"testing"

	"hyades/internal/cluster"
	"hyades/internal/node"
)

// TestDefaultConfigIsTwoWay checks that the production machine is built
// from two-way SMPs, each with its own bus.  The processor count per SMP
// lives in cluster.Config, so the check goes through the cluster that
// assembles the nodes.
func TestDefaultConfigIsTwoWay(t *testing.T) {
	cfg := cluster.DefaultConfig(16, 2)
	cfg.Workers = -1
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Processors() != 32 || len(c.Nodes) != 16 {
		t.Fatalf("16 two-way SMPs gave %d processors on %d nodes", c.Processors(), len(c.Nodes))
	}
	if c.Nodes[0].Bus == c.Nodes[1].Bus || c.Nodes[1].NIU.Endpoint() != 1 {
		t.Fatal("each SMP needs its own bus and NIU")
	}
	if node.MemcpyBandwidth <= node.UncachedCopyBandwidth {
		t.Fatal("cached copies should beat uncached copies")
	}
}
