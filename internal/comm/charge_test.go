package comm_test

import (
	"errors"
	"fmt"
	"testing"

	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/des"
	"hyades/internal/netmodel"
	"hyades/internal/units"
)

// oneRank runs body on a one-rank machine of the named endpoint kind and
// returns the run's error, a panic turned into one, and the events it
// consumed (0 for the serial endpoint, which has no engine).
func oneRank(t *testing.T, kind string, body func(ep comm.Endpoint)) (err error, events uint64) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %w", r.(error))
		}
	}()
	switch kind {
	case "hyades":
		cl, cerr := cluster.New(cluster.DefaultConfig(1, 1))
		if cerr != nil {
			t.Fatal(cerr)
		}
		defer cl.Close()
		h, herr := comm.NewHyades(cl, comm.DefaultHyadesConfig())
		if herr != nil {
			t.Fatal(herr)
		}
		cl.Start(func(w *cluster.Worker) { body(h.Bind(w)) })
		err = cl.Run()
		return err, cl.Eng.Events()
	case "netmodel":
		c := netmodel.New(1, netmodel.FastEthernet())
		defer c.Close()
		c.Start(func(ep *netmodel.Endpoint) { body(ep) })
		err = c.Run()
		return err, c.Eng.Events()
	default:
		body(&comm.Serial{})
		return nil, 0
	}
}

// TestNegativeChargeIsAnError: a negative Busy or Exec on any endpoint
// raises a *des.PastError — none turns it into a no-op or moves a clock
// backwards — while Busy(0) stays free: no sequence number, no clock.
func TestNegativeChargeIsAnError(t *testing.T) {
	const neg = -units.Nanosecond
	for _, kind := range []string{"hyades", "netmodel", "serial"} {
		for _, tc := range []struct {
			name string
			call func(ep comm.Endpoint)
		}{
			{"Busy", func(ep comm.Endpoint) { ep.Busy(neg) }},
			{"Exec", func(ep comm.Endpoint) { ep.Exec(neg, func() {}) }},
		} {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				var now units.Time
				err, _ := oneRank(t, kind, func(ep comm.Endpoint) {
					ep.Busy(units.Microsecond)
					defer func() { now = ep.Now() }()
					tc.call(ep)
				})
				var past *des.PastError
				if !errors.As(err, &past) || past.Delay != neg {
					t.Fatalf("err = %v, want a *des.PastError for %v", err, neg)
				}
				if now != units.Microsecond {
					t.Errorf("clock = %v after the refused charge, want %v", now, units.Microsecond)
				}
			})
		}
		t.Run(kind+"/Busy0", func(t *testing.T) {
			var before, after units.Time
			_, idle := oneRank(t, kind, func(ep comm.Endpoint) { before = ep.Now() })
			err, events := oneRank(t, kind, func(ep comm.Endpoint) {
				ep.Busy(0)
				after = ep.Now()
			})
			if err != nil || events != idle || after != before || before != 0 {
				t.Errorf("Busy(0): err %v, events %d (idle %d), clock %v -> %v; want a no-op", err, events, idle, before, after)
			}
		})
	}
}
