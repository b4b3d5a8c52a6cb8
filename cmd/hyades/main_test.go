package main

import (
	"strings"
	"testing"
)

// TestIgnoredFlagIsAnError: a flag set on a run that never reads it
// fails with an error naming it; flags left at their defaults, and
// flags the run reads, pass.
func TestIgnoredFlagIsAnError(t *testing.T) {
	cases := []struct {
		serial, net bool
		set         []string
		want        string // the flag the error names; "" for no error
	}{
		{serial: true, set: []string{"serial", "model", "steps", "digest", "checkpoint", "restore", "px", "py"}},
		{serial: true, set: []string{"serial", "warmup"}, want: "-warmup"},
		{serial: true, set: []string{"serial", "checkpoint-every"}, want: "-checkpoint-every"},
		{serial: true, set: []string{"serial", "nodes"}, want: "-nodes"},
		{serial: true, set: []string{"serial", "ppn"}, want: "-ppn"},
		{serial: true, set: []string{"serial", "net"}, want: "-net"},
		{net: true, set: []string{"net", "nodes", "ppn", "warmup", "steps", "px", "py", "digest"}},
		{net: true, set: []string{"net", "checkpoint-every"}, want: "-checkpoint-every"},
		{net: true, set: []string{"net", "restore"}, want: "-restore"},
		{set: []string{"nodes", "ppn", "warmup", "checkpoint-every", "node-outage", "digest"}},
		{set: []string{"checkpoint"}, want: "-checkpoint"},
		{set: []string{"restore"}, want: "-restore"},
		{set: []string{"serial"}}, // -serial=false
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, name := range c.set {
			set[name] = true
		}
		err := ignoredFlag(set, c.serial, c.net)
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
