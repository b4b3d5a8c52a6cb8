// Crash-recovery controller for the Hyades communication library.
//
// The controller closes the loop between the cluster's node-failure
// events (internal/cluster), the NIUs' dead-peer detection
// (internal/startx) and the application's checkpoints (internal/gcm):
//
//   - Every rank incarnation starts by calling Enter, a generation
//     rendezvous.  The controller releases a generation only when all N
//     ranks are present and no node is down, so ranks always restart
//     from a cluster-wide consistent cut.
//   - When a node crashes, its rank procs die (cluster kills them) and
//     every surviving rank is interrupted with a NodeDownError — either
//     by its own NIU's lease lapsing, or, for an outage shorter than
//     the peer lease, by the restarted node's rejoin announcement.  The
//     interrupt unwinds the rank's in-flight communication; the rank
//     re-enters the rendezvous and waits for the next generation.
//   - The release of a post-crash generation is delayed by an
//     exponential backoff in virtual time (restart storms back off
//     instead of thrashing), advances the cluster-wide communication
//     epoch, resets every NIU's protocol state symmetrically, and
//     rebuilds the library's per-node matching state.  Packets still in
//     flight from the previous epoch are discarded at the receivers.
//   - Checkpoints commit in two phases: a step's blobs are pending
//     until every rank has saved, and only then become the committed
//     restart point.  A crash mid-round discards the pending set, so a
//     restart never mixes state from different steps.
//
// Everything below runs on engine virtual time and rank-indexed
// slices; for a fixed (config, seed, fault plan, checkpoint interval)
// the entire crash/detect/rollback/replay timeline is deterministic at
// any -workers count.
package comm

import (
	"fmt"

	"hyades/internal/des"
	"hyades/internal/plates"
	"hyades/internal/startx"
	"hyades/internal/units"
)

// DefaultMaxRestarts is the crash budget of a new controller.
const DefaultMaxRestarts = 8

// The release of a post-crash generation is delayed by backoffBase,
// doubling per accumulated restart up to backoffCap.  The base must
// comfortably exceed the NIU transmit latency so no pre-crash packet
// injection can straddle the epoch reset (see release).
const (
	backoffBase = 200 * units.Microsecond
	backoffCap  = 3200 * units.Microsecond
)

// NodeDownError is the cause carried by the interrupt that unwinds a
// surviving rank when a peer node dies.  It unwraps to
// ErrPeerUnreachable so callers can errors.Is against the library's
// standard unreachability sentinel.
type NodeDownError struct {
	Observer int        // node whose NIU detected the death; -1 for the controller's rejoin announcement
	Peer     int        // the node that died
	At       units.Time // virtual detection instant
}

func (e *NodeDownError) Error() string {
	if e.Observer < 0 {
		return fmt.Sprintf("comm: node %d crashed and rejoined at %v", e.Peer, e.At)
	}
	return fmt.Sprintf("comm: node %d declared node %d dead at %v", e.Observer, e.Peer, e.At)
}

func (e *NodeDownError) Unwrap() error { return ErrPeerUnreachable }

// RecoveryStats summarizes a run's availability behaviour.
type RecoveryStats struct {
	Restarts         int        // node crashes survived
	RecoveryTime     units.Time // summed crash-to-release time over all rounds
	LostVirtual      units.Time // summed virtual time rolled back (crash minus last commit)
	Checkpoints      int        // committed checkpoint rounds
	CheckpointBytes  int64      // bytes across all committed rounds
	PendingDiscarded int        // pending checkpoint sets thrown away by crashes
}

// Recovery coordinates crash recovery for one Hyades library instance.
type Recovery struct {
	// MaxRestarts bounds the number of crashes survived before the run
	// fails with a diagnostic instead of retrying forever.  Set it
	// before the simulation runs.
	MaxRestarts int

	h   *Hyades
	sig *des.Signal // generation release broadcast

	n       int // total ranks
	epoch   uint32
	joined  []bool // rank is parked in the rendezvous
	joinedN int
	done    []bool // rank completed the job
	doneN   int

	nodeDown     []bool // node is crashed and not yet restarted
	downN        int
	crashed      bool // a crash happened since the last release
	releaseTimer *des.Timer

	stats   RecoveryStats // counted as the events happen
	crashes []units.Time  // crash instants no generation has recovered from yet

	// Two-phase checkpoint store.  A step's blobs accumulate in the
	// pending set; when all N ranks have saved, the set commits and
	// becomes the restart point.  Everything lives on the launcher
	// frame (comm is outside the rank partition), surviving the death
	// of any rank incarnation.  With plates set, every commit is also
	// written to disk (see Persist).
	ckStep   int // committed step; -1 before the first commit
	ckData   [][]byte
	pendStep int // -1 when no set is pending
	pendData [][]byte
	pendN    int
	commitAt units.Time // newest commit's virtual instant
	plates   *plates.Dir
}

// newRecovery builds the controller for h's cluster.
func newRecovery(h *Hyades) *Recovery {
	n := h.cl.Processors()
	return &Recovery{
		MaxRestarts: DefaultMaxRestarts,
		h:           h,
		sig:         des.NewSignal(h.cl.Eng, "recovery.release"),
		n:           n,
		joined:      make([]bool, n),
		done:        make([]bool, n),
		nodeDown:    make([]bool, h.cl.Cfg.Nodes),
		ckStep:      -1,
		ckData:      make([][]byte, n),
		pendStep:    -1,
		pendData:    make([][]byte, n),
	}
}

func (rc *Recovery) eng() *des.Engine { return rc.h.cl.Eng }

// Enter is the generation rendezvous every rank incarnation passes
// through before touching the model.  It blocks until the controller
// releases a generation with all N ranks present and no node down.  It
// returns true if the job already completed — a respawned incarnation
// of a node that crashed after the final step has nothing left to do.
func (rc *Recovery) Enter(r int) bool {
	if rc.doneN == rc.n {
		return true
	}
	rc.joined[r] = true
	rc.joinedN++
	rc.maybeRelease()
	// Released generations clear the joined flags; park until then.
	// The park is subject to the engine watchdog, so a wedged recovery
	// surfaces as a loud waiter dump, never a hang.
	for rc.joined[r] {
		rc.sig.Wait(rc.h.cl.Worker(r).Proc, rc.sig.Seq())
	}
	return rc.doneN == rc.n
}

// Done marks a rank's job complete.  When the last rank finishes, the
// heartbeat and lease timer chains stop so the event queue can drain.
func (rc *Recovery) Done(r int) {
	if rc.done[r] {
		return
	}
	rc.done[r] = true
	rc.doneN++
	if rc.doneN == rc.n {
		for _, nd := range rc.h.cl.Nodes {
			nd.NIU.StopPeerMonitor()
		}
		if rc.releaseTimer != nil {
			rc.releaseTimer.Cancel()
			rc.releaseTimer = nil
		}
	}
}

// Restarts returns the number of node crashes seen so far.
func (rc *Recovery) Restarts() int { return rc.stats.Restarts }

// maybeRelease releases the next generation once every rank is either
// parked in the rendezvous or done and no node is down.  A fault-free
// rendezvous (initial start) releases immediately; a post-crash one is
// delayed by the exponential backoff.
func (rc *Recovery) maybeRelease() {
	if rc.doneN == rc.n || rc.joinedN+rc.doneN < rc.n || rc.downN > 0 {
		return
	}
	if rc.releaseTimer != nil && rc.releaseTimer.Active() {
		return
	}
	if !rc.crashed {
		rc.release()
		return
	}
	rc.releaseTimer = rc.eng().After(rc.backoff(), rc.release)
}

// backoff returns the current release delay.
func (rc *Recovery) backoff() units.Time {
	d := backoffBase
	for i := 1; i < rc.stats.Restarts && d < backoffCap; i++ {
		d <<= 1
	}
	return min(d, backoffCap)
}

// release opens the next generation.  After a crash it first rolls the
// whole cluster onto a fresh communication epoch: pending checkpoint
// state and in-flight protocol state are discarded everywhere at the
// same virtual instant, which is what makes the symmetric sequence
// reset sound.  The backoff guarantees the release is far later than
// any packet injection scheduled before the crash, so no old-epoch
// traffic can be stamped with the new epoch.
func (rc *Recovery) release() {
	rc.releaseTimer = nil
	if rc.crashed {
		rc.crashed = false
		rc.epoch++
		rc.discardPending()
		for _, nd := range rc.h.cl.Nodes {
			nd.NIU.ResetComm(rc.epoch)
		}
		rc.h.resetNodeComm()
		for _, at := range rc.crashes {
			rc.stats.RecoveryTime += rc.eng().Now() - at
		}
		rc.crashes = rc.crashes[:0]
	}
	for r := range rc.joined {
		rc.joined[r] = false
	}
	rc.joinedN = 0
	rc.sig.Broadcast()
}

// nodeCrashed observes a cluster crash event (engine context).  It
// decides, at the crash instant, whether recovery is possible at all;
// the survivors learn of the crash later, through their leases or the
// rejoin announcement.
func (rc *Recovery) nodeCrashed(nodeID int, permanent bool) {
	if rc.doneN == rc.n {
		return // post-completion crash event: nothing left to protect
	}
	now := rc.eng().Now()
	rc.stats.Restarts++
	rc.crashes = append(rc.crashes, now)
	rc.stats.LostVirtual += now - rc.commitAt
	if permanent {
		rc.eng().Fail(fmt.Errorf("comm: node %d lost permanently at %v, recovery impossible: %w",
			nodeID, now, ErrPeerUnreachable))
		return
	}
	if rc.doneN > 0 {
		rc.eng().Fail(fmt.Errorf("comm: node %d crashed at %v after %d of %d ranks completed; cannot roll back a finished rank",
			nodeID, now, rc.doneN, rc.n))
		return
	}
	if rc.stats.Restarts > rc.MaxRestarts {
		rc.eng().Fail(fmt.Errorf("comm: node %d crash #%d exceeds the restart budget (max %d)",
			nodeID, rc.stats.Restarts, rc.MaxRestarts))
		return
	}
	rc.crashed = true
	if !rc.nodeDown[nodeID] {
		rc.nodeDown[nodeID] = true
		rc.downN++
	}
	// The dead incarnations left the rendezvous with their state.
	ppn := rc.h.cl.Cfg.ProcsPerNode
	for r := nodeID * ppn; r < (nodeID+1)*ppn; r++ {
		if rc.joined[r] {
			rc.joined[r] = false
			rc.joinedN--
		}
	}
	rc.discardPending()
	if rc.releaseTimer != nil {
		rc.releaseTimer.Cancel()
		rc.releaseTimer = nil
	}
}

// nodeRestarted observes a cluster restart event (engine context).
// Survivors whose leases have not lapsed yet — the outage was shorter
// than the peer lease — learn of the incarnation change here, from the
// restarted node's rejoin announcement, instead of waiting for a lease
// that will now never expire.
func (rc *Recovery) nodeRestarted(nodeID int) {
	if rc.doneN == rc.n {
		return
	}
	if rc.nodeDown[nodeID] {
		rc.nodeDown[nodeID] = false
		rc.downN--
	}
	cause := &NodeDownError{Observer: -1, Peer: nodeID, At: rc.eng().Now()}
	for n := range rc.h.cl.Nodes {
		if n != nodeID {
			rc.interruptNode(n, cause)
		}
	}
	rc.maybeRelease()
}

// peerDead observes one NIU's lease-based death declaration (engine
// context): the observer node's ranks abandon their in-flight
// communication and fall back to the rendezvous.
func (rc *Recovery) peerDead(observer, peer int) {
	if rc.doneN == rc.n {
		return
	}
	rc.interruptNode(observer, &NodeDownError{Observer: observer, Peer: peer, At: rc.eng().Now()})
}

// unreachable reroutes an exhausted retransmit budget on nodeID's NIU.
// It returns true if the controller absorbed the event (the stalled
// stream points at a crashed node and rollback will reset it) and
// false if this is a genuine link-level failure the caller should
// surface as before.
func (rc *Recovery) unreachable(nodeID int, u startx.UnreachableInfo) bool {
	if rc.doneN == rc.n {
		return true
	}
	if !rc.crashed && !rc.nodeDown[u.Peer] {
		return false
	}
	rc.interruptNode(nodeID, &NodeDownError{Observer: nodeID, Peer: u.Peer, At: rc.eng().Now()})
	return true
}

// interruptNode unwinds a node's live, not-yet-converged rank procs.
// Joined ranks are already parked in the rendezvous and done ranks
// have nothing to unwind; a dead proc ignores the interrupt.
func (rc *Recovery) interruptNode(nodeID int, cause error) {
	ppn := rc.h.cl.Cfg.ProcsPerNode
	for r := nodeID * ppn; r < (nodeID+1)*ppn; r++ {
		if rc.joined[r] || rc.done[r] {
			continue
		}
		if w := rc.h.cl.Worker(r); w != nil && w.Proc != nil {
			w.Proc.Interrupt(cause)
		}
	}
}

// SaveCheckpoint deposits one rank's serialized state for a step into
// the pending set.  The set commits — becoming the restart point —
// only when all N ranks have saved the same step; a crash in between
// discards it, so restarts never mix steps.
func (rc *Recovery) SaveCheckpoint(rank, step int, blob []byte) {
	if step != rc.pendStep {
		if rc.pendStep >= 0 {
			// A stale set from a rank that saved just before a crash
			// interrupted the round; the replay supersedes it.
			rc.stats.PendingDiscarded++
		}
		rc.pendStep = step
		rc.pendN = 0
		for i := range rc.pendData {
			rc.pendData[i] = nil
		}
	}
	if rc.pendData[rank] == nil {
		rc.pendN++
	}
	rc.pendData[rank] = blob
	if rc.pendN < rc.n {
		return
	}
	rc.ckStep = rc.pendStep
	rc.ckData, rc.pendData = rc.pendData, rc.ckData
	rc.pendStep = -1
	rc.pendN = 0
	for i := range rc.pendData {
		rc.pendData[i] = nil
	}
	rc.stats.Checkpoints++
	rc.commitAt = rc.eng().Now()
	for _, b := range rc.ckData {
		rc.stats.CheckpointBytes += int64(len(b))
	}
	if rc.plates != nil {
		if err := rc.plates.Write(rc.ckStep, rc.ckData); err != nil {
			rc.eng().Fail(err)
		}
	}
}

// Persist makes d the on-disk image of the committed set: from now on
// every commit is also written there, one plate per rank, at the moment
// it commits — so a plate set on disk is complete by construction.  If
// d.Load found a set, it becomes the committed set and the first
// generation restores from it (a resumed run is generation 0 of a new
// job, not a crash).  Must be called before the simulation runs.
func (rc *Recovery) Persist(d *plates.Dir) {
	rc.plates = d
	if step, blobs := d.Loaded(); blobs != nil {
		rc.ckStep, rc.ckData = step, blobs
	}
}

// Checkpoint returns rank's blob from the committed set, or ok=false
// if nothing has committed yet.
func (rc *Recovery) Checkpoint(rank int) (step int, blob []byte, ok bool) {
	if rc.ckStep < 0 {
		return 0, nil, false
	}
	return rc.ckStep, rc.ckData[rank], true
}

// discardPending throws away an unfinished checkpoint round.
func (rc *Recovery) discardPending() {
	if rc.pendStep < 0 {
		return
	}
	rc.pendStep = -1
	rc.pendN = 0
	for i := range rc.pendData {
		rc.pendData[i] = nil
	}
	rc.stats.PendingDiscarded++
}

// Stats summarizes the run.  RecoveryTime sums each round's
// crash-to-release span; LostVirtual sums the virtual time between
// each crash and the newest commit before it — the integration work
// the rollback repeated.
func (rc *Recovery) Stats() RecoveryStats { return rc.stats }

// Fail stops the simulation with err: a rank found the job
// unrecoverable (nothing to restore, a checkpoint it cannot read).
func (rc *Recovery) Fail(err error) { rc.eng().Fail(err) }

// CopyCost is the virtual time a rank's processor spends moving an
// n-byte checkpoint through memory, in either direction.
func (rc *Recovery) CopyCost(n int) units.Time {
	return rc.h.cl.Cfg.Node.MemcpyBandwidth.Transfer(n)
}
