package main

import (
	"strings"
	"testing"

	"hyades/internal/comm"
	"hyades/internal/gcm"
	"hyades/internal/report"
	"hyades/internal/units"
)

// TestIgnoredFlagIsAnError: a flag set on a run that never reads it
// fails with an error naming it; flags left at their defaults, and
// flags the run reads, pass.
func TestIgnoredFlagIsAnError(t *testing.T) {
	cases := []struct {
		serial, net, seeded bool
		set                 []string
		want                string // the flag the error names; "" for no error
	}{
		{serial: true, set: []string{"serial", "model", "steps", "digest", "checkpoint", "restore"}},
		{serial: true, set: []string{"serial", "warmup"}, want: "-warmup"},
		{serial: true, set: []string{"serial", "checkpoint-every"}, want: "-checkpoint-every"},
		{serial: true, set: []string{"serial", "nodes"}, want: "-nodes"},
		{serial: true, set: []string{"serial", "ppn"}, want: "-ppn"},
		{serial: true, set: []string{"serial", "net"}, want: "-net"},
		{serial: true, set: []string{"serial", "drop-rate"}, want: "-drop-rate"},
		{serial: true, set: []string{"serial", "fault-seed"}, want: "-fault-seed"},
		{net: true, set: []string{"net", "nodes", "ppn", "warmup", "steps", "digest"}},
		{net: true, set: []string{"net", "checkpoint-every"}, want: "-checkpoint-every"},
		{net: true, set: []string{"net", "restore"}, want: "-restore"},
		{net: true, set: []string{"net", "corrupt-rate"}, want: "-corrupt-rate"},
		{net: true, set: []string{"net", "node-outage"}, want: "-node-outage"},
		{set: []string{"nodes", "ppn", "warmup", "checkpoint-every", "node-outage", "digest"}},
		{seeded: true, set: []string{"fault-seed", "drop-rate", "corrupt-rate", "link-outage"}},
		{seeded: true, set: []string{"fault-seed", "corrupt-rate"}},
		{set: []string{"fault-seed"}, want: "-fault-seed"},
		{set: []string{"fault-seed", "link-outage", "node-outage"}, want: "-fault-seed"},
		{set: []string{"fault-seed", "drop-rate"}, want: "-fault-seed"}, // -drop-rate 0
		{set: []string{"checkpoint"}, want: "-checkpoint"},
		{set: []string{"restore"}, want: "-restore"},
		{set: []string{"serial"}}, // -serial=false
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, name := range c.set {
			set[name] = true
		}
		err := ignoredFlag(set, c.serial, c.net, c.seeded)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v: unexpected error %v", c.set, err)
		case c.want != "" && (err == nil || !strings.HasPrefix(err.Error(), c.want+" ")):
			t.Errorf("%v: error %v, want one naming %s", c.set, err, c.want)
		}
	}
	// Step counts a run cannot take are refused the same way: -steps 0
	// would divide by zero, a negative count would report NaN, a
	// negative warm-up would run no timed step at all, and a negative
	// checkpoint cadence would silently mean "never".
	for _, c := range []struct {
		steps, warmup, every int
		want                 string
	}{
		{0, 2, 0, "-steps "},
		{-3, 2, 0, "-steps "},
		{1, -1, 0, "-warmup "},
		{1, 0, -1, "-checkpoint-every "},
	} {
		if err := badSteps(c.steps, c.warmup, c.every); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("-steps %d -warmup %d -checkpoint-every %d: error %v, want one naming %s", c.steps, c.warmup, c.every, err, c.want)
		}
	}
	if err := badSteps(1, 0, 0); err != nil {
		t.Errorf("-steps 1 -warmup 0 -checkpoint-every 0: unexpected error %v", err)
	}
}

// TestAddAvailabilityGolden pins the exact availability block: these
// rows are the survival contract's user-facing surface, so their
// wording and formatting are part of the interface.
func TestAddAvailabilityGolden(t *testing.T) {
	tb := report.NewTable("", "metric", "value")
	addAvailability(tb, gcm.RecoveryResult{
		RecoveryStats: comm.RecoveryStats{
			Restarts:         2,
			RecoveryTime:     units.Micros(1412.5),
			LostVirtual:      units.Micros(52300),
			Checkpoints:      3,
			CheckpointBytes:  5950080,
			PendingDiscarded: 1,
		},
		LostFlops: 987654321,
	})
	want := "metric                                 value             \n" +
		"---------------------------------------------------------\n" +
		"node restarts survived                 2                 \n" +
		"recovery overhead (virtual)            1.413ms           \n" +
		"lost virtual time / replayed flops     52.3ms / 987654321\n" +
		"checkpoints committed                  3 (5950080 bytes) \n" +
		"checkpoint rounds discarded mid-crash  1                 \n"
	if got := tb.String(); got != want {
		t.Errorf("availability block drifted:\ngot:\n%swant:\n%s", got, want)
	}

	// Without a spoiled round the discard row is omitted entirely.
	tb2 := report.NewTable("", "metric", "value")
	addAvailability(tb2, gcm.RecoveryResult{RecoveryStats: comm.RecoveryStats{Checkpoints: 2, CheckpointBytes: 10}})
	if out := tb2.String(); strings.Contains(out, "discarded") {
		t.Errorf("discard row printed for a clean run:\n%s", out)
	}
}
