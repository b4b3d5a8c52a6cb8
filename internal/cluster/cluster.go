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

	"hyades/internal/arctic"
	"hyades/internal/des"
	"hyades/internal/fault"
	"hyades/internal/node"
	"hyades/internal/startx"
	"hyades/internal/units"
)

// Config selects the machine to build.
type Config struct {
	Nodes        int // number of SMPs
	ProcsPerNode int // 1 (network benchmarks) or 2 (production mix-mode)

	// Fault selects the deterministic fault plan to inject into the
	// fabric.  When it enables any fault the NIUs run their go-back-N
	// reliable channel (startx.New), so link faults are masked (or
	// surface as ErrPeerUnreachable) instead of wedging the run.
	Fault fault.Config

	// Workers chooses when the ranks' compute phases (Proc.Exec) run on
	// the host.  Negative: inline at submission, no pool.  Otherwise a
	// des.Pool is attached and each phase runs at its completion event;
	// the pool has no host threads and no size (des/pool.go says why).
	// The virtual schedule is identical for every value.
	Workers int
}

// DefaultConfig returns the published Hyades machine with the given SMP
// count and processors per SMP.
func DefaultConfig(nodes, procsPerNode int) Config {
	return Config{Nodes: nodes, ProcsPerNode: procsPerNode}
}

// watchdog bounds any single blocking wait in virtual time; a wait
// exceeding it panics with the full parked-waiter map (see
// des.SetWatchdog).  An hour of virtual time is ~20x the longest
// production run the paper analyses; any single wait that long is a
// protocol bug.  Tests shorten it with Eng.SetWatchdog.
const watchdog = units.Hour

// Cluster is an assembled machine.
type Cluster struct {
	Cfg    Config
	Eng    *des.Engine
	Fabric *arctic.Fabric
	Nodes  []*node.Node

	// plan is the compiled fault plan the fabric injects (nil when the
	// config enables no fault).
	plan *fault.Plan

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
	if err := cfg.Fault.Validate(cfg.Nodes); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	var plan *fault.Plan
	if cfg.Fault.Enabled() {
		plan = fault.NewPlan(cfg.Fault)
	}
	eng := des.NewEngine()
	eng.SetWatchdog(watchdog)
	fab, err := arctic.New(eng, arctic.Config{Endpoints: cfg.Nodes, Faults: plan})
	if err != nil {
		return nil, err
	}
	c := &Cluster{Cfg: cfg, Eng: eng, Fabric: fab, plan: plan}
	if cfg.Workers >= 0 {
		eng.SetPool(des.NewPool(cfg.Workers))
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := node.New(eng, i)
		n.AttachNIU(startx.New(eng, n.Bus, fab, i))
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
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
	for i := range c.Nodes {
		for _, win := range c.plan.Node(i).Windows() {
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
	// The kernel surfaces watchdog trips, in-process panics and events
	// scheduled into the past by panicking from engine context; turn
	// them into errors so callers get a diagnosis (with the waiter map)
	// instead of a crash.
	defer func() {
		if err != nil {
			return
		}
		switch r := recover().(type) {
		case nil:
		case *des.WatchdogError, *des.ProcPanic, *des.PastError:
			err = fmt.Errorf("cluster: %w", r.(error))
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

// Close releases the engine's process coroutines.
func (c *Cluster) Close() { c.Eng.Close() }
