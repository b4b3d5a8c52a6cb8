package des

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"hyades/internal/units"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3*units.Microsecond, func() { got = append(got, 3) })
	e.Schedule(1*units.Microsecond, func() { got = append(got, 1) })
	e.Schedule(2*units.Microsecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*units.Microsecond {
		t.Fatalf("Now = %v, want 3us", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(units.Microsecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

// runPast runs the engine and returns the *PastError it panicked
// with, and the process name when a *ProcPanic carried it.
func runPast(t *testing.T, e *Engine) (pe *PastError, proc string) {
	t.Helper()
	defer func() {
		r := recover()
		if pp, ok := r.(*ProcPanic); ok {
			proc, r = pp.Proc, pp.Value
		}
		var ok bool
		if pe, ok = r.(*PastError); !ok {
			t.Fatalf("panic = %v (%T), want a *PastError", r, r)
		}
	}()
	e.Run()
	return nil, ""
}

// TestNegativeDelayPanics: a negative delay is a loud, typed failure at
// every entry point — raised as is from an event, wrapped in a
// *ProcPanic naming the process from a process — and never a silent
// clamp to now.
func TestNegativeDelayPanics(t *testing.T) {
	const d = -5 * units.Microsecond
	events := map[string]func(e *Engine){
		"Schedule": func(e *Engine) { e.Schedule(d, func() {}) },
		"Timer.Arm": func(e *Engine) {
			var tm Timer
			tm.Init(e, func() {})
			tm.Arm(d)
		},
		"Slot.Hold": func(e *Engine) {
			var s Slot
			s.Init(e, func() {})
			s.Hold(d, false)
		},
	}
	for call, fn := range events {
		e := NewEngine()
		fired := false
		e.Schedule(units.Microsecond, func() { fn(e) })
		e.Schedule(2*units.Microsecond, func() { fired = true })
		pe, proc := runPast(t, e)
		if pe.Call != call || pe.Delay != d || pe.Now != units.Microsecond || proc != "" {
			t.Errorf("%s: got %+v from %q, want Delay %v at 1us from an event", call, pe, proc, d)
		}
		if fired {
			t.Errorf("%s: the run went on past the failure", call)
		}
	}
	procs := map[string]func(p *Proc){
		"Delay": func(p *Proc) { p.Delay(d) },
	}
	for call, fn := range procs {
		e := NewEngine()
		e.Spawn("rank3", func(p *Proc) { p.Delay(units.Microsecond); fn(p) })
		pe, proc := runPast(t, e)
		if pe.Call != call || pe.Delay != d || proc != "rank3" {
			t.Errorf("%s: got %+v from %q, want Delay %v from rank3", call, pe, proc, d)
		}
		if !strings.Contains(pe.Error(), "into the past") {
			t.Errorf("%s: error %q does not say what went wrong", call, pe)
		}
	}
}

// TestZeroDelayIsAsSoonAsPossible: zero stays legal — the event runs at
// the current time, after simultaneous events already queued.
func TestZeroDelayIsAsSoonAsPossible(t *testing.T) {
	e := NewEngine()
	var got []int
	var tm Timer
	tm.Init(e, func() { got = append(got, 3) })
	e.Schedule(units.Microsecond, func() {
		e.Schedule(0, func() { got = append(got, 2) })
		tm.Arm(0)
	})
	e.Schedule(units.Microsecond, func() { got = append(got, 1) })
	e.Spawn("p", func(p *Proc) { p.Delay(units.Microsecond); p.Delay(0); got = append(got, 4) })
	e.Run()
	if len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 || e.Now() != units.Microsecond {
		t.Fatalf("order %v at %v, want [1 2 3 4] at 1us", got, e.Now())
	}
}

func TestScheduleAtPast(t *testing.T) {
	e := NewEngine()
	e.Schedule(2*units.Microsecond, func() {
		e.ScheduleAt(units.Microsecond, func() { t.Error("past ScheduleAt ran") })
	})
	pe, _ := runPast(t, e)
	if pe.Call != "ScheduleAt" || pe.Delay != -units.Microsecond || pe.Now != 2*units.Microsecond {
		t.Fatalf("got %+v, want ScheduleAt 1us into the past at 2us", pe)
	}
}

func TestProcDelay(t *testing.T) {
	e := NewEngine()
	var trace []units.Time
	e.Spawn("walker", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Delay(5 * units.Microsecond)
			trace = append(trace, p.Now())
		}
	})
	e.Run()
	for i, at := range trace {
		want := units.Time(i+1) * 5 * units.Microsecond
		if at != want {
			t.Fatalf("step %d at %v, want %v", i, at, want)
		}
	}
	if len(trace) != 4 {
		t.Fatalf("got %d steps, want 4", len(trace))
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Delay(2 * units.Microsecond)
				log = append(log, "a")
			}
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Delay(3 * units.Microsecond)
				log = append(log, "b")
			}
		})
		e.Run()
		e.Close()
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("nondeterministic length")
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestMailboxBlockingRecv(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[int](e, "mb")
	var got int
	var at units.Time
	e.Spawn("rx", func(p *Proc) {
		got = mb.Recv(p)
		at = p.Now()
	})
	e.Schedule(7*units.Microsecond, func() { mb.Send(42) })
	e.Run()
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
	if at != 7*units.Microsecond {
		t.Fatalf("received at %v, want 7us", at)
	}
}

func TestMailboxFIFOAndMultipleWaiters(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[int](e, "mb")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("rx", func(p *Proc) {
			p.Delay(units.Time(i) * units.Nanosecond) // fix waiter order
			v := mb.Recv(p)
			order = append(order, v*10+i)
		})
	}
	e.Schedule(units.Microsecond, func() {
		mb.Send(1)
		mb.Send(2)
		mb.Send(3)
	})
	e.Run()
	if len(order) != 3 {
		t.Fatalf("only %d receives completed: %v", len(order), order)
	}
	// Waiters wake FIFO: waiter 0 gets item 1, waiter 1 item 2, ...
	want := []int{10, 21, 32}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMailboxTryRecv(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[string](e, "mb")
	if _, ok := mb.TryRecv(); ok {
		t.Fatal("TryRecv on empty mailbox succeeded")
	}
	mb.Send("x")
	if mb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", mb.Len())
	}
	v, ok := mb.TryRecv()
	if !ok || v != "x" {
		t.Fatalf("TryRecv = %q,%v", v, ok)
	}
}

// TestMailboxRingWrapsAcrossGrowth fills the ring past its capacity
// while its head is not at slot 0, so the growth copies a wrapped ring,
// and checks FIFO order across the growth and the later wraps.
func TestMailboxRingWrapsAcrossGrowth(t *testing.T) {
	mb := NewMailbox[int](NewEngine(), "mb")
	next, want := 0, 0
	recv := func() {
		if v, ok := mb.TryRecv(); !ok || v != want {
			t.Fatalf("TryRecv = %d,%v, want %d", v, ok, want)
		}
		want++
	}
	for round := 0; round < 3; round++ {
		mb.Send(next)
		next++
		mb.Send(next)
		next++
		recv() // head leaves slot 0
		for mb.Len() < 9 {
			mb.Send(next)
			next++
		}
		for mb.Len() > 1 {
			recv()
		}
	}
	for mb.Len() > 0 {
		recv()
	}
	if want != next {
		t.Fatalf("received %d items, sent %d", want, next)
	}
}

// TestQueueWrapsAcrossGrowth fills a Queue past its capacity while its
// head is not at slot 0, so the growth copies a wrapped ring, and checks
// Front, At and FIFO order across the growth and the later wraps.
func TestQueueWrapsAcrossGrowth(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	push := func() {
		q.Push(next)
		next++
	}
	pop := func() {
		if f := q.Front(); f != want {
			t.Fatalf("Front = %d, want %d", f, want)
		}
		for i := 0; i < q.Len(); i++ {
			if v := q.At(i); v != want+i {
				t.Fatalf("At(%d) = %d, want %d", i, v, want+i)
			}
		}
		if v := q.Pop(); v != want {
			t.Fatalf("Pop = %d, want %d", v, want)
		}
		want++
	}
	for round := 0; round < 3; round++ {
		push()
		push()
		pop() // head leaves slot 0
		for q.Len() < 9 {
			push()
		}
		for q.Len() > 1 {
			pop()
		}
	}
	for q.Len() > 0 {
		pop()
	}
	if want != next {
		t.Fatalf("popped %d items, pushed %d", want, next)
	}
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "sem", 1)
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		e.Spawn("worker", func(p *Proc) {
			sem.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Delay(units.Microsecond)
			inside--
			sem.Release()
		})
	}
	e.Run()
	if maxInside != 1 {
		t.Fatalf("mutual exclusion violated: %d inside", maxInside)
	}
	if e.Now() != 5*units.Microsecond {
		t.Fatalf("serialized critical sections should end at 5us, got %v", e.Now())
	}
}

func TestSemaphoreCounting(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "sem", 2)
	done := 0
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) {
			sem.Acquire(p)
			p.Delay(units.Microsecond)
			sem.Release()
			done++
		})
	}
	e.Run()
	if done != 4 {
		t.Fatalf("done = %d, want 4", done)
	}
	if e.Now() != 2*units.Microsecond {
		t.Fatalf("two-wide semaphore should finish at 2us, got %v", e.Now())
	}
	if sem.count != 2 {
		t.Fatalf("count = %d, want 2", sem.count)
	}
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	s1, e1 := r.Claim(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first claim [%v,%v]", s1, e1)
	}
	s2, e2 := r.Claim(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("overlapping claim [%v,%v], want [10,20]", s2, e2)
	}
	s3, e3 := r.Claim(100, 3)
	if s3 != 100 || e3 != 103 {
		t.Fatalf("idle claim [%v,%v], want [100,103]", s3, e3)
	}
}

func TestBlockedDetection(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[int](e, "never")
	e.Spawn("stuck", func(p *Proc) { mb.Recv(p) })
	e.Run()
	if e.Blocked() != 1 {
		t.Fatalf("Blocked = %d, want 1", e.Blocked())
	}
	e.Close()
	if e.Blocked() != 0 {
		t.Fatalf("Blocked after Close = %d", e.Blocked())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(units.Time(i)*units.Microsecond, func() { count++ })
	}
	e.RunUntil(5 * units.Microsecond)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", e.Pending())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d after Run, want 10", count)
	}
}

func TestStepSingleEvent(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(1, func() { n++ })
	e.Schedule(2, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// Property: events fire in nondecreasing time order regardless of the
// insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fired []units.Time
		for _, d := range delays {
			e.Schedule(units.Time(d)*units.Nanosecond, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a chain of producer/consumer processes conserves items.
func TestMailboxConservationProperty(t *testing.T) {
	f := func(seed int64, nMsg uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nMsg%50) + 1
		e := NewEngine()
		a := NewMailbox[int](e, "a")
		b := NewMailbox[int](e, "b")
		sum := 0
		want := 0
		e.Spawn("producer", func(p *Proc) {
			for i := 0; i < n; i++ {
				v := rng.Intn(1000)
				want += v
				a.Send(v)
				p.Delay(units.Time(rng.Intn(100)) * units.Nanosecond)
			}
		})
		e.Spawn("relay", func(p *Proc) {
			for i := 0; i < n; i++ {
				v := a.Recv(p)
				p.Delay(units.Time(rng.Intn(100)) * units.Nanosecond)
				b.Send(v)
			}
		})
		e.Spawn("consumer", func(p *Proc) {
			for i := 0; i < n; i++ {
				sum += b.Recv(p)
			}
		})
		e.Run()
		blocked := e.Blocked()
		e.Close()
		return sum == want && blocked == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[int](e, "m")
	e.Spawn("stuck", func(p *Proc) { mb.Recv(p) })
	e.Run()
	e.Close()
	e.Close()
}

// Property: Signal never loses a wakeup — a waiter that snapshots the
// sequence before a broadcast either returns immediately or is woken
// by a later broadcast; with at least one broadcast after every
// snapshot, all waiters always finish.
func TestSignalNoLostWakeups(t *testing.T) {
	f := func(seed int64, nWaiters uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		sig := NewSignal(e, "sig")
		n := int(nWaiters)%8 + 1
		done := 0
		for i := 0; i < n; i++ {
			e.Spawn("waiter", func(p *Proc) {
				for round := 0; round < 5; round++ {
					snap := sig.Seq()
					// Random work between snapshot and wait models the
					// hardware-poll window where wakeups could be lost.
					p.Delay(units.Time(rng.Intn(1000)) * units.Nanosecond)
					sig.Wait(p, snap)
				}
				done++
			})
		}
		e.Spawn("broadcaster", func(p *Proc) {
			// Keep broadcasting until everyone finished; bounded.
			for i := 0; i < 5*n+50; i++ {
				p.Delay(units.Time(rng.Intn(700)+1) * units.Nanosecond)
				sig.Broadcast()
				if done == n {
					return
				}
			}
		})
		e.Run()
		blocked := e.Blocked()
		e.Close()
		return done == n && blocked == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSignalImmediateReturnOnStaleSnapshot(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e, "sig")
	returned := false
	e.Spawn("w", func(p *Proc) {
		snap := sig.Seq()
		sig.Broadcast() // advance before waiting
		sig.Wait(p, snap)
		returned = true
	})
	e.Run()
	if !returned {
		t.Fatal("stale snapshot should return immediately")
	}
	e.Close()
}
