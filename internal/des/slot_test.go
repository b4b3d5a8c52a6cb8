package des

import (
	"fmt"
	"math/rand"
	"testing"

	"hyades/internal/units"
)

// facility is a serially reusable thing with a FIFO of jobs, written
// twice: with a Slot, and the way it was before Slot existed — a busy
// flag and a free event queued after every job.  Both log every job
// start with the clock and the engine's sequence counter, so any
// difference in order, time or numbers consumed shows.
type facility struct {
	e     *Engine
	slot  *Slot // nil: the always-queued reference
	busy  bool
	queue []units.Time // service times of waiting jobs
	log   *[]string
	name  string
}

func (f *facility) arrive(service units.Time) {
	f.queue = append(f.queue, service)
	if f.slot != nil {
		if !f.slot.Await() {
			f.start()
		}
	} else if !f.busy {
		f.start()
	}
}

func (f *facility) start() {
	if len(f.queue) == 0 {
		f.busy = false
		return
	}
	f.busy = true
	d := f.queue[0]
	f.queue = f.queue[1:]
	*f.log = append(*f.log, fmt.Sprintf("%s start@%d seq=%d", f.name, f.e.Now(), f.e.Events()))
	if f.slot != nil {
		f.slot.Hold(d, len(f.queue) > 0)
	} else {
		f.e.Schedule(d, f.start)
	}
}

// slotWorkload drives three facilities from events and from processes
// whose Delays may or may not take the inline fast path, with service
// times and gaps drawn so that arrivals land before, exactly on and
// after the end of a hold, and returns the log, Events() and the final
// clock.
func slotWorkload(seed int64, slots bool) ([]string, uint64, units.Time) {
	e := NewEngine()
	defer e.Close()
	rng := rand.New(rand.NewSource(seed))
	var log []string
	facs := make([]*facility, 3)
	for i := range facs {
		f := &facility{e: e, log: &log, name: fmt.Sprintf("f%d", i)}
		if slots {
			f.slot = new(Slot)
			f.slot.Init(e, f.start)
		}
		facs[i] = f
	}
	// Small integers: ties between arrivals and ends of holds are the
	// point, and zero-length holds are the outage branch of a link.
	draw := func() units.Time { return units.Time(rng.Intn(4)) }
	events := func() {
		for i := 0; i < 20; i++ {
			f, at, d := facs[rng.Intn(3)], e.Now()+units.Time(rng.Intn(40)), draw()
			e.ScheduleAt(at, func() {
				log = append(log, fmt.Sprintf("event@%d", e.Now()))
				f.arrive(d)
				if d == 0 {
					f.arrive(1) // a second job inside the same activity
				}
			})
		}
	}
	events()
	for i := 0; i < 3; i++ {
		gaps := make([]units.Time, 15)
		for j := range gaps {
			gaps[j] = draw()
		}
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j, g := range gaps {
				p.Delay(g)
				log = append(log, fmt.Sprintf("%s@%d", p.Name(), p.Now()))
				facs[(i+j)%3].arrive(gaps[(j+1)%len(gaps)])
			}
		})
	}
	// In two legs: what the caller does between them is ordered after
	// everything the first leg consumed, trailing slots included.
	e.Run()
	log = append(log, fmt.Sprintf("between@%d seq=%d", e.Now(), e.Events()))
	for _, f := range facs {
		f.arrive(draw())
	}
	events()
	e.Run()
	return log, e.Events(), e.Now()
}

// A Slot is indistinguishable from an event queued every time: same
// order, same clock at every step, same sequence numbers, same end.
func TestSlotMatchesAlwaysQueuedEvent(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		wantLog, wantEvents, wantNow := slotWorkload(seed, false)
		log, events, now := slotWorkload(seed, true)
		if events != wantEvents || now != wantNow {
			t.Fatalf("seed %d: events %d now %d, always-queued %d %d", seed, events, now, wantEvents, wantNow)
		}
		for i := range wantLog {
			if i >= len(log) || log[i] != wantLog[i] {
				t.Fatalf("seed %d: step %d is %q, always-queued %q", seed, i, append(log, "<end>")[i], wantLog[i])
			}
		}
	}
}

// The running activity's position decides whether a hold is over.  A
// process that advances inline onto the very timestamp of a reserved
// position consumed a later number, so it is past it; an event queued
// earlier for that timestamp is before it and must still wait.
func TestSlotAtItsExactTimestamp(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var s Slot
	released := units.Never
	s.Init(e, func() { released = e.Now() })
	e.Spawn("fast", func(p *Proc) {
		s.Hold(10, false)
		p.Delay(10) // nothing is queued: the clock advances inline
		if e.Counters().Dispatched != 1 {
			t.Errorf("the Delay went through the queue (%d events dispatched)", e.Counters().Dispatched)
		}
		if s.Await() {
			t.Error("a process past the slot's (at, seq) still sees the hold")
		}
	})
	e.Run()
	if released != units.Never || e.Counters().SlotsMaterialised != 0 {
		t.Fatal("an unneeded slot was queued")
	}

	var held bool
	e.ScheduleAt(30, func() { held = s.Await() }) // seq before the slot's
	e.ScheduleAt(20, func() { s.Hold(10, false) })
	e.ScheduleAt(30, func() { // seq before the slot's too: sees the queued state
		if !s.Await() {
			t.Error("second earlier event no longer sees the hold")
		}
	})
	e.Run()
	if !held || released != 30 {
		t.Fatalf("earlier-seq event at the slot's timestamp: held=%v, release ran at %v", held, released)
	}
	if c := e.Counters(); c.SlotsReserved != 2 || c.SlotsMaterialised != 1 {
		t.Fatalf("counters %+v", c)
	}
	if s.Await() {
		t.Fatal("hold outlived its release event")
	}
}

// Run ends on the clock an always-queued event would have left, even
// when the last thing due is a slot nothing needed; RunUntil with a
// finite limit moves the clock over such a slot only when no slot lies
// beyond the limit.
func TestClockOverTrailingSlot(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var a, b Slot
	a.Init(e, func() {})
	b.Init(e, func() {})
	e.Schedule(5, func() { a.Hold(20, false) })
	e.RunUntil(30)
	if e.Now() != 25 || e.Pending() != 0 {
		t.Fatalf("RunUntil(30) with the last slot at 25: now %v, %d pending", e.Now(), e.Pending())
	}
	if a.Await() {
		t.Fatal("hold survived the run that passed it")
	}
	e.Schedule(5, func() { a.Hold(10, false); b.Hold(100, false) }) // at 30: slots at 40 and 130
	e.RunUntil(50)
	if e.Now() != 30 {
		t.Fatalf("RunUntil(50) with a slot at 130: now %v, want the last event at 30", e.Now())
	}
	if e.Step() {
		t.Fatal("Step stopped on a reserved slot")
	}
	if e.Now() != 130 || e.Events() != 5 {
		t.Fatalf("drained: now %v events %d, want 130 and 5", e.Now(), e.Events())
	}
}

// Holding and asking cost no allocation once the event freelist is warm.
func TestSlotAllocatesNothing(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var s Slot
	s.Init(e, func() {})
	cycle := func() {
		s.Hold(1, false)
		s.Await() // materialise
		e.Run()
		s.Hold(1, false)
		e.Run()
		e.Counters()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("%v allocations per hold/await cycle", n)
	}
}
