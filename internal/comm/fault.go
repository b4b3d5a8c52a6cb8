package comm

import (
	"errors"
	"fmt"

	"hyades/internal/arctic"
	"hyades/internal/startx"
)

// ErrPeerUnreachable is the sentinel wrapped by every reliable-channel
// delivery failure: the retry budget for some peer was exhausted.  Match
// it with errors.Is; the concrete *PeerUnreachableError carries the
// diagnostics.
var ErrPeerUnreachable = errors.New("comm: peer unreachable")

// PeerUnreachableError reports an exhausted retransmit budget with
// enough context to identify the wedged protocol step.
type PeerUnreachableError struct {
	SrcNode, DstNode int             // SMP ids of the two ends
	SrcRank, DstRank int             // communication-master ranks of the SMPs
	Seq              uint64          // oldest unacknowledged sequence number
	Tag              int             // its packet tag
	Class            int             // the tag's protocol class bits
	Pri              arctic.Priority // the stalled stream's priority
	Retries          int             // timeouts burned before giving up
	Stranded         int             // packets still queued for the peer
}

// Error implements error.
func (e *PeerUnreachableError) Error() string {
	return fmt.Sprintf("%v: node %d (rank %d) -> node %d (rank %d): seq %d (tag %#x, class %d, %s priority) unacked after %d retries, %d packets stranded",
		ErrPeerUnreachable, e.SrcNode, e.SrcRank, e.DstNode, e.DstRank,
		e.Seq, e.Tag, e.Class, e.Pri, e.Retries, e.Stranded)
}

// Unwrap lets errors.Is(err, ErrPeerUnreachable) succeed.
func (e *PeerUnreachableError) Unwrap() error { return ErrPeerUnreachable }

// unreachableError translates a NIU diagnostic into the comm-level
// error, mapping SMP ids to the ranks of their communication masters.
func unreachableError(ppn int, u startx.UnreachableInfo) *PeerUnreachableError {
	return &PeerUnreachableError{
		SrcNode:  u.Local,
		DstNode:  u.Peer,
		SrcRank:  u.Local * ppn,
		DstRank:  u.Peer * ppn,
		Seq:      u.Seq,
		Tag:      u.Tag,
		Class:    u.Tag >> tagClassShift & 0x7,
		Pri:      u.Pri,
		Retries:  u.Retries,
		Stranded: u.Stranded,
	}
}
