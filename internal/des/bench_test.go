package des

import "testing"

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
