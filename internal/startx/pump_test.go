package startx

import (
	"fmt"
	"testing"

	"hyades/internal/arctic"
	"hyades/internal/des"
	"hyades/internal/units"
)

// The transmit pump re-arms itself at the end of a burst only when more
// is queued; with the queue dry the end of the burst is a reserved
// position that a later DMASend may still need.  The arrival times, the
// event count and the final clock were recorded from the tree before
// that change, when every burst queued the re-arm: they may not move.
// (The count and clock once also held the receiver's eight deadline
// events and its last 100 µs expiry, 97 and 167643333, when it took
// the transfers with a deadline receive; the arrivals are unchanged.)
func TestTransmitPumpAcrossIdleGaps(t *testing.T) {
	eng, nius := rig(t)
	tx := nius[0]
	var log string
	eng.Spawn("rx", func(p *des.Proc) {
		for range 7 {
			x := nius[1].rxVI.Recv(p)
			log += fmt.Sprintf("%d@%d ", x.Tag, p.Now())
		}
	})
	eng.Spawn("tx", func(p *des.Proc) {
		// Three bursts; the next send lands inside the last one, whose
		// end was only reserved.
		tx.DMASend(p, 1, 1, make([]byte, 200), arctic.Low)
		p.Delay(1500 * units.Nanosecond)
		tx.DMASend(p, 1, 2, make([]byte, 50), arctic.Low)
		// Long after the pump went idle.
		p.Delay(20 * units.Microsecond)
		tx.DMASend(p, 1, 3, make([]byte, 50), arctic.Low)
		// A crash and a restart inside one burst: the queue is gone, the
		// burst's end is still the pump's next chance.
		tx.Crash()
		tx.Restart()
		tx.DMASend(p, 1, 4, make([]byte, 50), arctic.Low)
		p.Delay(20 * units.Microsecond)
		// A rollback between the bursts of one transfer, then a fresh one.
		tx.DMASend(p, 1, 5, make([]byte, 200), arctic.Low)
		p.Delay(500 * units.Nanosecond)
		tx.ResetComm(0)
		tx.DMASend(p, 1, 6, make([]byte, 50), arctic.Low)
		p.Delay(20 * units.Microsecond)
		// Sending while down: nothing moves, the job stays queued behind
		// the next live send.
		tx.Crash()
		tx.DMASend(p, 1, 7, make([]byte, 50), arctic.Low)
		tx.Restart()
		tx.DMASend(p, 1, 8, make([]byte, 50), arctic.Low)
	})
	eng.Run()
	got := fmt.Sprintf("%sevents=%d now=%d", log, eng.Events(), eng.Now())
	const want = "1@4546667 2@5046667 3@24843333 4@25343333 6@46920000 7@67143333 8@67643333 events=89 now=67643333"
	if got != want {
		t.Fatalf("\n got %s\nwant %s", got, want)
	}
	// The scenario is only worth its name if it met both outcomes: ends
	// of bursts that nothing needed, and ends that a send did.
	c := eng.Counters()
	if c.SlotsMaterialised < 2 || c.SlotsReserved <= c.SlotsMaterialised {
		t.Fatalf("slots reserved %d, materialised %d", c.SlotsReserved, c.SlotsMaterialised)
	}
}
