package des

import (
	"fmt"
	"testing"
)

// BenchmarkProcHandoff measures one process switch through a blocking
// primitive: two processes bounce an item between two mailboxes, so
// every op is one Send, one wake event and one switch from the sender
// (via the dispatcher) into the parked receiver.
func BenchmarkProcHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	defer e.Close()
	ping, pong := NewMailbox[int](e, "ping"), NewMailbox[int](e, "pong")
	rounds := (b.N + 1) / 2
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			pong.Send(i)
			ping.Recv(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			ping.Send(pong.Recv(p))
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcSelfWake measures a Delay that must really block: an
// event due at the expiry instant rules out the inline fast path, so
// every op is two events and one switch out of the process and back
// into the same one.
func BenchmarkProcSelfWake(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	defer e.Close()
	noop := func() {}
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.Schedule(us, noop)
			p.Delay(us)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkStepChain prices a step function against the process form.
// One op is a chain of k delays, each of which must block: a competing
// process's wake is due at every expiry.  Through Delay the chain costs
// k switch pairs; through one Await, whose wakes run the step on the
// dispatcher, it costs one.  The competitor's own switches are in both.
func BenchmarkStepChain(b *testing.B) {
	for _, k := range []int{1, 8} {
		for _, await := range []bool{false, true} {
			form := "Delay"
			if await {
				form = "Await"
			}
			b.Run(fmt.Sprintf("%s/k=%d", form, k), func(b *testing.B) { benchStepChain(b, k, await) })
		}
	}
}

func benchStepChain(b *testing.B, k int, await bool) {
	b.ReportAllocs()
	e := NewEngine()
	defer e.Close()
	e.Spawn("competitor", func(p *Proc) {
		for i := 0; i < b.N*k; i++ {
			p.Delay(us)
		}
	})
	e.Spawn("chain", func(p *Proc) {
		left := 0
		step := func() bool {
			for left > 0 {
				left--
				if !p.StepDelay(us) {
					return false
				}
			}
			return true
		}
		for i := 0; i < b.N; i++ {
			if await {
				left = k
				p.Await(step)
				continue
			}
			for j := 0; j < k; j++ {
				p.Delay(us)
			}
		}
	})
	b.ResetTimer()
	e.Run()
}
