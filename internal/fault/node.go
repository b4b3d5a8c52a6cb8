// Whole-node crash plans.
//
// A NodeOutage takes an entire simulated node down — every rank proc on
// it dies at the crash instant and the NIU goes deaf — and, when the
// window is finite, schedules its restart.  Node plans follow the same
// discipline as link faults: windows live in virtual time and a
// compiled plan is a pure function of the Config.  Two runs with equal configs crash at equal instants.

package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hyades/internal/units"
)

// NodeOutage crashes a node for a virtual-time window.  Node selects
// the victim: a decimal node index, a trailing-* prefix pattern over
// the decimal index ("1*" kills nodes 1 and 10..19), or "*" for every
// node.  Until <= 0 means the node never restarts.
type NodeOutage struct {
	Node  string
	From  units.Time // crash instant
	Until units.Time // restart instant; <= 0 = permanent death
}

// NodeWindow is one compiled crash window of a node: crash at From,
// restart at Until, or never if Until <= 0.
type NodeWindow struct {
	From  units.Time
	Until units.Time
}

// NodeFault is the compiled crash plan of one node.
type NodeFault struct {
	node    int
	windows []NodeWindow
}

// Windows returns the node's crash windows, sorted by crash instant.
func (nf *NodeFault) Windows() []NodeWindow { return nf.windows }

// validate rejects plans the cluster cannot execute: overlapping crash
// windows on one node (the node would crash while already down) and a
// permanent death followed by a later window (the node is gone; a
// later crash of it is a contradiction, not a no-op).
func (nf *NodeFault) validate() error {
	for i, w := range nf.windows {
		if i == 0 {
			continue
		}
		prev := nf.windows[i-1]
		if prev.Until <= 0 {
			return fmt.Errorf("fault: node %d has a crash window at %v after its permanent death at %v", nf.node, w.From, prev.From)
		}
		if w.From < prev.Until {
			return fmt.Errorf("fault: node %d crash windows overlap: [%v, %v) and one starting %v", nf.node, prev.From, prev.Until, w.From)
		}
	}
	return nil
}

// Node returns the compiled crash plan for node id, creating it on
// first use.  Like Link, callers resolve plans once at construction
// time; the linear cache scan never runs hot.
func (p *Plan) Node(id int) *NodeFault {
	for _, nf := range p.nodes {
		if nf.node == id {
			return nf
		}
	}
	nf := &NodeFault{node: id}
	for _, o := range p.cfg.NodeOutages {
		if matchNode(o.Node, id) {
			nf.windows = append(nf.windows, NodeWindow{From: o.From, Until: o.Until})
		}
	}
	sort.Slice(nf.windows, func(i, j int) bool {
		return nf.windows[i].From < nf.windows[j].From
	})
	p.nodes = append(p.nodes, nf)
	return nf
}

// matchNode reports whether pattern selects node id.  A pattern is "*"
// for every node, a trailing-* prefix over the decimal index, or an
// exact decimal index.
func matchNode(pattern string, id int) bool {
	name := strconv.Itoa(id)
	if pattern == "*" {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(name, pattern[:len(pattern)-1])
	}
	return pattern == name
}

// ParseNodeOutage parses the -node-outage flag grammar, the node-level
// sibling of ParseOutage:
//
//	NODE                crash at t=0, never restart
//	NODE:FROM           crash at FROM microseconds, never restart
//	NODE:FROM-UNTIL     crash at FROM, restart at UNTIL microseconds
//
// NODE is a decimal node index, a trailing-* prefix pattern, or "*".
func ParseNodeOutage(s string) (NodeOutage, error) {
	node, from, until, err := nodeGrammar.parse(s)
	if err == nil {
		err = checkNodePattern(node, s)
	}
	if err != nil {
		return NodeOutage{}, err
	}
	return NodeOutage{Node: node, From: from, Until: until}, nil
}

var nodeGrammar = outageGrammar{
	emptyName:   "fault: empty node selector in node outage %q",
	badFrom:     "fault: bad node-outage crash instant in %q: %v",
	badUntil:    "fault: bad node-outage restart instant in %q: %v",
	emptyWindow: "fault: node outage %q restarts at or before its crash (reversed or empty window)",
}

// checkNodePattern validates a node selector: "*", digits, or digits
// followed by a single trailing '*'.
func checkNodePattern(pattern, spec string) error {
	body := pattern
	if strings.HasSuffix(body, "*") {
		body = body[:len(body)-1]
	}
	for i := 0; i < len(body); i++ {
		if body[i] < '0' || body[i] > '9' {
			return fmt.Errorf("fault: bad node selector %q in node outage %q (want an index, a trailing-* prefix, or *)", pattern, spec)
		}
	}
	if strings.Count(pattern, "*") > 1 {
		return fmt.Errorf("fault: bad node selector %q in node outage %q (want an index, a trailing-* prefix, or *)", pattern, spec)
	}
	return nil
}

// ParseNodeOutages parses a comma-separated list of node-outage specs,
// rejecting an exact duplicate as ParseOutages does.
func ParseNodeOutages(s string) ([]NodeOutage, error) {
	return parseList(s, "node-outage", ParseNodeOutage)
}
