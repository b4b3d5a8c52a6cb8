package des

import (
	"math/rand"
	"testing"

	"hyades/internal/units"
)

// TestLadderMatchesHeapOrder drives a ladder queue and a binary heap
// with the same deterministic stream of pushes, pops and cancellations
// and requires identical pop order.  The mix is adversarial for the
// ladder: timestamp clusters (same-instant storms), far-future spikes
// (watchdog-like arms that are almost always cancelled), and pops
// interleaved with pushes so events land in top, rungs and bottom.
func TestLadderMatchesHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lad := &ladderQueue{}
	hp := &heapSched{}

	var now units.Time
	var seq uint64
	mk := func(at units.Time) (*event, *event) {
		seq++
		return &event{at: at, seq: seq}, &event{at: at, seq: seq}
	}
	// cancellable holds paired (ladder, heap) events still pending.
	type pair struct{ l, h *event }
	var cancellable []pair

	popBoth := func() bool {
		var le *event
		for {
			le = lad.pop()
			if le == nil || !le.dead {
				break
			}
		}
		he := hp.pop()
		if (le == nil) != (he == nil) {
			t.Fatalf("emptiness mismatch: ladder %v heap %v", le, he)
		}
		if le == nil {
			return false
		}
		if le.at != he.at || le.seq != he.seq {
			t.Fatalf("pop order diverged: ladder (%d,%d) heap (%d,%d)",
				le.at, le.seq, he.at, he.seq)
		}
		if le.at > now {
			now = le.at
		}
		return true
	}

	for i := 0; i < 200000; i++ {
		switch r := rng.Intn(100); {
		case r < 45: // near-future push, heavy same-instant ties
			at := now + units.Time(rng.Intn(4))
			le, he := mk(at)
			lad.push(le)
			hp.push(he)
			cancellable = append(cancellable, pair{le, he})
		case r < 65: // mid-range push
			at := now + units.Time(rng.Intn(100000))
			le, he := mk(at)
			lad.push(le)
			hp.push(he)
			cancellable = append(cancellable, pair{le, he})
		case r < 75: // watchdog-like far-future push
			at := now + units.Time(3600)*units.Time(1e12)
			le, he := mk(at)
			lad.push(le)
			hp.push(he)
			cancellable = append(cancellable, pair{le, he})
		case r < 90: // pop
			popBoth()
		default: // cancel a random pending event
			if len(cancellable) == 0 {
				continue
			}
			j := rng.Intn(len(cancellable))
			p := cancellable[j]
			cancellable[j] = cancellable[len(cancellable)-1]
			cancellable = cancellable[:len(cancellable)-1]
			// Skip events that already popped (cheap check: a popped
			// ladder event was returned by pop; we cannot tell without
			// tracking, so track via dead/idx is unreliable — instead
			// only cancel events strictly in the future).
			if p.l.at <= now {
				continue
			}
			lad.cancel(p.l)
			hp.cancel(p.h)
		}
		if lad.len() != hp.len() {
			t.Fatalf("live count diverged: ladder %d heap %d", lad.len(), hp.len())
		}
	}
	// Drain both to empty.
	for popBoth() {
	}
	if lad.len() != 0 {
		t.Fatalf("ladder reports %d live events after drain", lad.len())
	}
}

// TestLadderMatchesHeapWithReservedSeqs is the order check for events
// that enter the queue with a sequence number older than ones already
// queued — a Slot reserved its (at, seq) early and was needed late.
// The ladder must file such an event by its full key wherever it lands:
// the unsorted top, a rung bucket, or the sorted bottom, where it goes
// in front of same-timestamp events pushed since.
func TestLadderMatchesHeapWithReservedSeqs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lad := &ladderQueue{}
	hp := &heapSched{}
	var seq uint64
	last := event{} // the last popped key: nothing may be queued before it
	var reserved []event
	landed := map[int8]int{} // region each late push went to
	push := func(at units.Time, s uint64) *event {
		le, he := &event{at: at, seq: s}, &event{at: at, seq: s}
		lad.push(le)
		hp.push(he)
		return le
	}
	spread := func() units.Time {
		switch rng.Intn(3) {
		case 0:
			return units.Time(rng.Intn(3)) // ties with the head of the queue
		case 1:
			return units.Time(rng.Intn(50000))
		default:
			return units.Time(rng.Intn(5000000))
		}
	}
	for i := 0; i < 200000; i++ {
		switch r := rng.Intn(100); {
		case r < 40:
			seq++
			push(last.at+spread(), seq)
		case r < 55: // reserve a position, queue nothing
			seq++
			reserved = append(reserved, event{at: last.at + spread(), seq: seq})
		case r < 70: // need a reserved position after all
			if len(reserved) == 0 {
				continue
			}
			j := rng.Intn(len(reserved))
			ev := reserved[j]
			reserved[j] = reserved[len(reserved)-1]
			reserved = reserved[:len(reserved)-1]
			if !eventBefore(&last, &ev) {
				continue // already passed: the engine would not queue it
			}
			le := push(ev.at, ev.seq)
			if le.rng >= 0 {
				landed[0]++
			} else {
				landed[le.rng]++
			}
		default:
			le, he := lad.pop(), hp.pop()
			if (le == nil) != (he == nil) {
				t.Fatalf("emptiness mismatch: ladder %v heap %v", le, he)
			}
			if le == nil {
				continue
			}
			if le.at != he.at || le.seq != he.seq {
				t.Fatalf("pop order diverged: ladder (%d,%d) heap (%d,%d)", le.at, le.seq, he.at, he.seq)
			}
			if !eventBefore(&last, le) {
				t.Fatalf("popped (%d,%d) after (%d,%d)", le.at, le.seq, last.at, last.seq)
			}
			last = *le
		}
	}
	for name, region := range map[string]int8{"top": rngTop, "a rung": 0, "bottom": rngBottom} {
		if landed[region] < 100 {
			t.Errorf("only %d out-of-order pushes landed in %s", landed[region], name)
		}
	}
}
