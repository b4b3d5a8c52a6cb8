package des

import (
	"fmt"
	"math/rand"
	"strings"
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
		le, he := lad.next(units.Never), hp.next(units.Never)
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
			le, he := lad.next(units.Never), hp.next(units.Never)
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

// TestLadderBottomInsertMatchesHeap drives the sorted bottom the way a
// simulated machine does: one far-future watchdog keeps rung 0 an hour
// wide, so every near event lands in bottom, whose length follows the
// number of live activities — a dozen or two at 16 endpoints, a few
// hundred at 1,024.  Against the heap it checks the order after every
// kind of bottom insert: appends past the tail, binary-searched ones
// into short and long bottoms, inserts right after a prefix compaction,
// and reserved positions (an older seq) that tie the tail's timestamp
// and so sort just before it.
func TestLadderBottomInsertMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	lad, hp := &ladderQueue{}, &heapSched{}
	var seq uint64
	var now units.Time
	var stash []uint64 // positions drawn and not yet queued, oldest first
	watchdogs := 0
	const horizon = units.Time(3600e12)

	counts := map[string]int{}
	push := func(at units.Time, s uint64) {
		le := &event{at: at, seq: s}
		c0 := lad.cursor
		lad.push(le)
		hp.push(&event{at: at, seq: s})
		if le.rng != rngBottom {
			return
		}
		pos := len(lad.bottom) - 1
		for lad.bottom[pos] != le {
			pos--
		}
		switch n := len(lad.bottom) - lad.cursor; {
		case pos == len(lad.bottom)-1:
			counts["append"]++
		case n <= 32:
			counts["searched in a short bottom"]++
		default:
			counts["searched in a long bottom"]++
		}
		if lad.cursor < c0 && pos < len(lad.bottom)-1 {
			counts["shifted after a compaction"]++
		}
		if next := pos + 1; next < len(lad.bottom) && lad.bottom[next].at == at {
			counts["tie before a newer seq"]++
		}
	}
	newSeq := func() uint64 { seq++; return seq }

	push(now+horizon, newSeq())
	watchdogs++
	for i := range 16 {
		push(units.Time(i), newSeq())
	}
	for _, phase := range []struct{ actors, pops int }{{16, 40000}, {300, 60000}, {20, 40000}} {
		for i := 0; i < phase.pops; i++ {
			le, he := lad.next(units.Never), hp.next(units.Never)
			if le == nil || he == nil || le.at != he.at || le.seq != he.seq {
				t.Fatalf("pop diverged: ladder %+v heap %+v", le, he)
			}
			now = le.at
			if le.at >= horizon {
				t.Fatalf("the watchdog fired at %d", le.at)
			}
			successors := 1
			if actors := hp.len() - watchdogs; actors < phase.actors {
				successors = 2
			} else if actors > phase.actors+1 {
				successors = 0
			}
			for range successors {
				at := now + units.Time(rng.Intn(100))*10 // coarse steps: many equal timestamps
				if rng.Intn(3) == 0 {
					at = now + 1000 + units.Time(rng.Intn(10)) // beyond the others: an append
				}
				push(at, newSeq())
			}
			if rng.Intn(4) == 0 {
				stash = append(stash, newSeq())
			}
			// Queue a reserved position at the tail's timestamp when
			// the tail is newer: it must go in front of the tail.
			if n := len(lad.bottom); rng.Intn(3) == 0 && len(stash) > 0 && n > lad.cursor {
				if tail := lad.bottom[n-1]; stash[0] < tail.seq {
					push(tail.at, stash[0])
					stash = stash[1:]
				}
			}
			if lad.len() != hp.len() {
				t.Fatalf("live count diverged: ladder %d heap %d", lad.len(), hp.len())
			}
		}
	}
	for _, kind := range []string{"append", "searched in a short bottom", "searched in a long bottom", "shifted after a compaction", "tie before a newer seq"} {
		if counts[kind] < 100 {
			t.Errorf("only %d bottom inserts %s (all: %v)", counts[kind], kind, counts)
		}
	}
}

// TestRunUntilDrainsATombstonedHead stops RunUntil at limits that fall
// between events while the head of the queue is a cancelled timer, and
// lets Delay's inline fast path look past another one.  The clock,
// Events() and Pending() after each stop were recorded when the run
// loop still peeked and popped in two scheduler calls.
func TestRunUntilDrainsATombstonedHead(t *testing.T) {
	type stop struct {
		limit  units.Time
		now    units.Time
		events uint64
		queued int
		log    string
	}
	want := []stop{
		{12, 10, 7, 4, ""},
		{18, 17, 8, 3, ""},
		{30, 26, 9, 1, "a@20 p@26"},
		{units.Never, 1e15, 9, 0, "a@20 p@26 b@1000000000000000"},
	}
	e := NewEngine()
	var log []string
	note := func(s string) func() { return func() { log = append(log, fmt.Sprintf("%s@%d", s, e.Now())) } }
	var t1, t2 Timer
	t1.Init(e, note("t1"))
	t2.Init(e, note("t2"))
	t1.Arm(15)
	t2.Arm(25)
	e.Schedule(20, note("a"))
	e.Schedule(1e15, note("b")) // rung 0 is coarse: the rest sorts into bottom
	e.Spawn("p", func(p *Proc) {
		p.Delay(10)
		t1.Cancel()
		if l := &e.sched; !l.bottom[l.cursor].dead {
			t.Errorf("the cancelled timer is not a tombstone at the head of bottom")
		}
		p.Delay(7) // past the limit of 12: queued behind the tombstone
		t2.Cancel()
		p.Delay(5)
		p.Delay(4) // inline: the tombstone at 25 is all that comes first
		note("p")()
	})
	for _, w := range want {
		e.RunUntil(w.limit)
		got := stop{w.limit, e.Now(), e.Events(), e.Pending(), strings.Join(log, " ")}
		if got != w {
			t.Errorf("RunUntil(%d) left %+v, want %+v", w.limit, got, w)
		}
	}
}
