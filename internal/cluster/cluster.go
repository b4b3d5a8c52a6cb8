// Package cluster assembles a simulated Hyades machine: N two-way SMP
// nodes, one StarT-X NIU per node, and the Arctic Switch Fabric joining
// them (paper §2).
//
// The published Hyades configuration is sixteen SMPs; production climate
// runs use eight SMPs (sixteen processors) per model component.  The
// cluster is parameterised so both configurations — and scaling studies
// beyond them — run from the same code.
package cluster

import (
	"fmt"
	"runtime"
	"strconv"

	"hyades/internal/arctic"
	"hyades/internal/des"
	"hyades/internal/fault"
	"hyades/internal/node"
	"hyades/internal/pci"
	"hyades/internal/startx"
	"hyades/internal/units"
)

// Config selects the machine to build.
type Config struct {
	Nodes        int // number of SMPs
	ProcsPerNode int // 1 (network benchmarks) or 2 (production mix-mode)

	Arctic arctic.Config
	PCI    pci.Config
	NIU    startx.Config
	Node   node.Config

	// Fault selects the deterministic fault plan to inject into the
	// fabric.  When it enables any fault the NIUs' go-back-N reliable
	// channel is switched on with it, so link faults are masked (or
	// surface as ErrPeerUnreachable) instead of wedging the run.
	Fault fault.Config

	// Watchdog bounds any single blocking wait in virtual time; a wait
	// exceeding it panics with the full parked-waiter map (see
	// des.SetWatchdog).  Zero disables it.
	Watchdog units.Time

	// Workers chooses when the ranks' compute phases (Proc.Exec) run on
	// the host.  Negative: inline at submission, no pool.  Otherwise a
	// des.Pool of that nominal size is attached (zero means GOMAXPROCS)
	// and each phase runs at its completion event; the pool has no host
	// threads (des/pool.go says why), so the size only labels it.  The
	// virtual schedule is identical for every value.
	Workers int

	// Scheduler selects the engine's event-queue implementation.  The
	// zero value is the ladder queue; des.SchedHeap keeps the original
	// binary heap for the scheduler-equivalence determinism tests.
	Scheduler des.SchedulerKind
}

// DefaultConfig returns the published Hyades machine with the given SMP
// count and processors per SMP.
func DefaultConfig(nodes, procsPerNode int) Config {
	nodeCfg := node.DefaultConfig()
	nodeCfg.Processors = procsPerNode
	return Config{
		Nodes:        nodes,
		ProcsPerNode: procsPerNode,
		Arctic:       arctic.DefaultConfig(nodes),
		PCI:          pci.DefaultConfig(),
		NIU:          startx.DefaultConfig(),
		Node:         nodeCfg,
		// An hour of virtual time is ~20x the longest production run the
		// paper analyses; any single wait that long is a protocol bug.
		Watchdog: units.Hour,
	}
}

// Cluster is an assembled machine.
type Cluster struct {
	Cfg    Config
	Eng    *des.Engine
	Fabric *arctic.Fabric
	Nodes  []*node.Node
	Pool   *des.Pool // defers compute phases to completion (nil: inline)

	// Crash/restart machinery (armed by Start when the fault plan
	// crashes nodes).  body is the rank body, re-run by respawned
	// incarnations; workers tracks the current incarnation per rank.
	body    func(w *Worker)
	workers []*Worker

	// Restarts counts executed node-restart events.
	Restarts int

	// OnNodeCrash and OnNodeRestart, if set, observe (in engine
	// context) a node's crash — permanent means no restart is scheduled
	// — and its return.  The comm layer's recovery controller hangs off
	// these.
	OnNodeCrash   func(nodeID int, permanent bool)
	OnNodeRestart func(nodeID int)
}

// New builds the machine on a fresh engine.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	if cfg.ProcsPerNode < 1 || cfg.ProcsPerNode > 8 {
		return nil, fmt.Errorf("cluster: %d processors per node out of range", cfg.ProcsPerNode)
	}
	eng := des.NewEngineWithScheduler(cfg.Scheduler)
	eng.SetWatchdog(cfg.Watchdog)
	cfg.Arctic.Endpoints = cfg.Nodes
	if cfg.Fault.Enabled() {
		cfg.Arctic.Faults = fault.NewPlan(cfg.Fault)
		cfg.NIU.Reliable = true
	}
	if cfg.Fault.NodesEnabled() {
		if err := validateNodePlan(cfg); err != nil {
			return nil, err
		}
	}
	fab, err := arctic.New(eng, cfg.Arctic)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Cfg: cfg, Eng: eng, Fabric: fab}
	if cfg.Workers >= 0 {
		workers := cfg.Workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		c.Pool = des.NewPool(workers)
		eng.SetPool(c.Pool)
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := node.New(eng, i, cfg.Node, cfg.PCI)
		n.AttachNIU(startx.New(eng, n.Bus, fab, i, cfg.NIU))
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
}

// validateNodePlan rejects node-outage configs the machine cannot
// execute: a spec naming a node that does not exist (an exact index out
// of range matches nothing and would silently inject no fault — a typo,
// like a duplicate spec) and overlapping crash windows on one node.
func validateNodePlan(cfg Config) error {
	for _, o := range cfg.Fault.NodeOutages {
		if idx, err := strconv.Atoi(o.Node); err == nil && (idx < 0 || idx >= cfg.Nodes) {
			return fmt.Errorf("cluster: node outage names node %d, but the machine has nodes 0..%d", idx, cfg.Nodes-1)
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		if err := cfg.Arctic.Faults.Node(i).Validate(); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
	}
	return nil
}

// Processors returns the total processor count.
func (c *Cluster) Processors() int { return c.Cfg.Nodes * c.Cfg.ProcsPerNode }

// Worker identifies one processor running application code.
type Worker struct {
	Rank int
	CPU  int // index within the SMP; 0 is the communication master
	Node *node.Node
	Proc *des.Proc
}

// Start spawns one application process per processor.  Ranks are dense:
// rank r runs on node r/ProcsPerNode, CPU r%ProcsPerNode, so CPU 0 of
// each SMP (the communication master of §4.1) holds the even ranks in
// the two-way configuration.  When the fault plan crashes nodes, Start
// also arms the crash events; respawned incarnations re-run body from
// the top.
func (c *Cluster) Start(body func(w *Worker)) []*Worker {
	c.body = body
	c.workers = make([]*Worker, c.Processors())
	for r := 0; r < c.Processors(); r++ {
		c.spawnRank(r, 0)
	}
	c.armNodeFaults()
	return c.workers
}

// Worker returns rank r's current incarnation (nil before Start).
func (c *Cluster) Worker(r int) *Worker {
	if c.workers == nil {
		return nil
	}
	return c.workers[r]
}

// spawnRank creates (or respawns, generation > 0) rank r's process.
func (c *Cluster) spawnRank(r, gen int) {
	nd := c.Nodes[r/c.Cfg.ProcsPerNode]
	w := &Worker{Rank: r, CPU: r % c.Cfg.ProcsPerNode, Node: nd}
	c.workers[r] = w
	name := fmt.Sprintf("rank%d", r)
	if gen > 0 {
		name = fmt.Sprintf("rank%d.r%d", r, gen)
	}
	w.Proc = c.Eng.Spawn(name, func(p *des.Proc) {
		// Rank-partitioned by construction: only rank r's own proc ever
		// writes workers[r].Proc, but the slot now lives on the Cluster
		// (respawn needs it), which the partition analysis cannot see.
		//lint:allow shareheap worker slot is rank-indexed; only rank r's proc writes it
		w.Proc = p
		c.body(w)
	})
}

// armNodeFaults schedules every compiled crash window of the fault
// plan as virtual-time events.
func (c *Cluster) armNodeFaults() {
	if !c.Cfg.Fault.NodesEnabled() {
		return
	}
	plan := c.Cfg.Arctic.Faults
	for i := range c.Nodes {
		for _, win := range plan.Node(i).Windows() {
			win, nodeID := win, i
			c.Eng.ScheduleAt(win.From, func() { c.crashNode(nodeID, win) })
		}
	}
}

// crashNode executes one crash window: the node's rank procs die at
// the current instant (their pending wake-ups become dropped events and
// any parked waits are abandoned), the NIU goes dark, and — for a
// finite window — the restart is scheduled.
func (c *Cluster) crashNode(nodeID int, win fault.NodeWindow) {
	for r := nodeID * c.Cfg.ProcsPerNode; r < (nodeID+1)*c.Cfg.ProcsPerNode; r++ {
		if w := c.workers[r]; w != nil && w.Proc != nil {
			w.Proc.Kill()
		}
	}
	c.Nodes[nodeID].NIU.Crash()
	if c.OnNodeCrash != nil {
		c.OnNodeCrash(nodeID, win.Until <= 0)
	}
	if win.Until > 0 {
		c.Eng.ScheduleAt(win.Until, func() { c.restartNode(nodeID) })
	}
}

// restartNode brings a crashed node back: the NIU comes up and fresh
// rank incarnations run the body from the top.
func (c *Cluster) restartNode(nodeID int) {
	c.Restarts++
	c.Nodes[nodeID].NIU.Restart()
	gen := c.Restarts
	for r := nodeID * c.Cfg.ProcsPerNode; r < (nodeID+1)*c.Cfg.ProcsPerNode; r++ {
		c.spawnRank(r, gen)
	}
	if c.OnNodeRestart != nil {
		c.OnNodeRestart(nodeID)
	}
}

// Run executes the simulation until all activity drains.  It returns an
// error if processes remain blocked (a deadlock in the modelled
// program).
func (c *Cluster) Run() (err error) {
	// The kernel surfaces watchdog trips and in-process panics by
	// panicking from engine context; turn both into errors so callers
	// get a diagnosis (with the waiter map) instead of a crash.
	defer func() {
		if err != nil {
			return
		}
		switch r := recover().(type) {
		case nil:
		case *des.WatchdogError:
			err = fmt.Errorf("cluster: %w", r)
		case *des.ProcPanic:
			err = fmt.Errorf("cluster: %w", r)
		default:
			panic(r)
		}
	}()
	c.Eng.Run()
	if err := c.Eng.Err(); err != nil {
		return fmt.Errorf("cluster: simulation failed at %v: %w", c.Eng.Now(), err)
	}
	if n := c.Eng.Blocked(); n != 0 {
		return fmt.Errorf("cluster: deadlock, %d processes still blocked:\n%s",
			n, des.FormatWaiters(c.Eng.Waiters()))
	}
	return nil
}

// Close releases the engine's process coroutines and the pool.
func (c *Cluster) Close() {
	c.Eng.Close()
	if c.Pool != nil {
		c.Pool.Close()
	}
}
