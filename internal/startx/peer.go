// Dead-peer detection and crash/restart state for the StarT-X NIU.
//
// A crashed node cannot tell anyone it died — its NIU simply goes
// silent.  Survivors detect this the way real clusters do: every NIU
// broadcasts a small high-priority heartbeat packet on a fixed
// virtual-time period, refreshes a per-peer lease on *any* arrival from
// that peer (data or heartbeat), and declares the peer dead once the
// lease lapses.  Everything runs on engine timers in virtual time, so
// detection instants — and therefore the whole recovery timeline — are
// a deterministic function of the fault plan.
//
// Epochs make rollback safe.  When the recovery controller rolls the
// cluster back to a checkpoint it advances every NIU to a new epoch via
// ResetComm; traffic still in flight from the old epoch (data, ACKs,
// retransmissions) is discarded at the receivers, so the fresh
// go-back-N sequence spaces can never be polluted by pre-crash
// stragglers.  Heartbeats are deliberately epoch-blind: liveness is a
// property of the node, not of the communication incarnation.

package startx

import (
	"hyades/internal/arctic"
	"hyades/internal/des"
	"hyades/internal/units"
)

// Dead-peer detection: a heartbeat every DefaultHeartbeat, and a peer
// is dead once nothing has been heard from it for DefaultPeerLease.  The
// lease spans several heartbeats so one dropped heartbeat never kills a
// live peer, and it sits below the go-back-N retry horizon so recovery
// is driven by the lease, not by an exhausted retransmit budget.
const (
	DefaultHeartbeat = 100 * units.Microsecond
	DefaultPeerLease = 400 * units.Microsecond
)

// hbPayload is the shared wire padding of every heartbeat packet; like
// ACKs, heartbeats carry no readable payload.
var hbPayload = make([]uint32, arctic.MinPayloadWords)

// StartPeerMonitor arms heartbeat transmission and lease checking.
// Must be called at most once, before the simulation runs hot; the
// monitor keeps ticking across crashes of this NIU (a downed NIU stays
// silent but its timer chain survives, so a restart resumes heartbeats
// without re-arming).
func (n *NIU) StartPeerMonitor() {
	eps := n.fab.Config().Endpoints
	n.lastHeard = make([]units.Time, eps)
	n.peerDead = make([]bool, eps)
	n.refreshLeases()
	n.hbTimer.Init(n.eng, n.hbTick)
	n.lsTimer.Init(n.eng, n.lsTick)
	n.hbTimer.Arm(DefaultHeartbeat)
	n.lsTimer.Arm(DefaultPeerLease)
}

// StopPeerMonitor cancels the heartbeat and lease timers so the event
// queue can drain once the job completes.
func (n *NIU) StopPeerMonitor() {
	n.hbTimer.Cancel()
	n.lsTimer.Cancel()
}

// hbTick broadcasts one heartbeat to every peer and re-arms itself.
func (n *NIU) hbTick() {
	n.hbTimer.Arm(DefaultHeartbeat)
	if n.down {
		return
	}
	eps := n.fab.Config().Endpoints
	for p := 0; p < eps; p++ {
		if p == n.ep {
			continue
		}
		pkt := n.fab.AcquirePacket()
		pkt.Pri = arctic.High
		pkt.Payload = hbPayload
		pkt.HB = true
		pkt.Epoch = n.epoch
		n.fab.RouteFor(pkt, n.ep, p)
		n.fab.Inject(n.ep, pkt)
	}
}

// lsTick checks every peer's lease and re-arms itself on the heartbeat
// period (so detection lags the lease by at most one period).
func (n *NIU) lsTick() {
	n.lsTimer.Arm(DefaultHeartbeat)
	if n.down {
		return
	}
	for p := range n.lastHeard {
		if p == n.ep || n.peerDead[p] {
			continue
		}
		if n.eng.Now()-n.lastHeard[p] > DefaultPeerLease {
			n.peerDead[p] = true
			if n.OnPeerDead != nil {
				n.OnPeerDead(p)
			}
		}
	}
}

// noteHeard refreshes a peer's lease.  A peer once declared dead stays
// declared until the recovery rollback clears the flag: flapping a peer
// back to life mid-recovery would make the controller's view diverge
// from the ranks'.
func (n *NIU) noteHeard(peer int) {
	if n.lastHeard == nil || peer < 0 || peer >= len(n.lastHeard) {
		return
	}
	n.lastHeard[peer] = n.eng.Now()
}

// refreshLeases restarts every peer's lease from the current instant
// and clears the dead declarations.
func (n *NIU) refreshLeases() {
	if n.lastHeard == nil {
		return
	}
	for p := range n.lastHeard {
		n.lastHeard[p] = n.eng.Now()
		n.peerDead[p] = false
	}
}

// Crash takes the NIU down at the current virtual instant, as a node
// power failure does: queued transmits vanish, received-but-unfetched
// messages are lost with the host's memory, and the go-back-N streams
// die with the protocol state.  The NIU stays attached to the fabric
// but drops every arrival until Restart.
func (n *NIU) Crash() {
	n.down = true
	n.txQueue = des.Queue[*dmaJob]{}
	n.drainRx()
	n.resetRel()
}

// Restart brings a crashed NIU back up.  Its communication state was
// already cleared by Crash; leases restart from the present so the
// rejoining node does not instantly declare every peer dead after its
// blackout.  Stream state is re-synchronized cluster-wide by ResetComm
// at the recovery release.
func (n *NIU) Restart() {
	n.down = false
	n.refreshLeases()
}

// ResetComm rolls the NIU onto a new communication epoch: all queued
// and in-flight protocol state is discarded, the go-back-N sequence
// spaces restart from zero, and leases restart from the present.  The
// recovery controller applies it to every NIU of the cluster at the
// same virtual instant, which is what makes the symmetric sequence
// reset safe.
func (n *NIU) ResetComm(epoch uint32) {
	n.epoch = epoch
	n.txQueue = des.Queue[*dmaJob]{}
	n.drainRx()
	n.resetRel()
	n.refreshLeases()
}

// drainRx discards every received-but-unfetched message.
func (n *NIU) drainRx() {
	for {
		if _, ok := n.rxHi.TryRecv(); !ok {
			break
		}
	}
	for {
		if _, ok := n.rxLo.TryRecv(); !ok {
			break
		}
	}
	for {
		if _, ok := n.rxVI.TryRecv(); !ok {
			break
		}
	}
}

// resetRel cancels the retransmit timers and forgets all go-back-N
// stream state, sender and receiver side.
func (n *NIU) resetRel() {
	for _, st := range n.relTxStreams {
		if st != nil {
			st.timer.Cancel()
		}
	}
	n.relTxStreams = nil
	n.relRxStreams = nil
}
