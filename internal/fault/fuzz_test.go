package fault

import (
	"strings"
	"testing"
)

// The outage grammars' fuzzers.  Seeds are the specs the table tests
// use, accepted and rejected alike; `go test` replays them and any
// input committed under testdata/fuzz, and ci.sh fuzzes each target for
// a fixed budget.

var outageSeeds = []string{
	"L0.up1", "L1.*:100", "x:10-25.5", "a, b:1-2", "", ":10", "x:ten", "x:10-5", "x:10-",
	"a:1-two", "a:1-2-3", "a:-5", "a:5-5", "a,a", "a:1-2, b, a:1-2", "a:1-2, a:3-4, a",
	"up(s0,1,p0),up(s0,1,p0)", "a:1-2, b:oops", "inject(0):1000-3000,up(s0,1,p0)", "up(s0,1,*",
}

var nodeOutageSeeds = []string{
	"3", "3:1000", "3:1000-2000", "*", "1*:500-900", "3:1000-2000,2:5000-6000", "3:1000,", "3:",
	"3:abc", "3:1000-abc", "3:2000-1000", "3:1000-1000", "x*y", "**", "3:1000-2000,3:1000-2000",
	"1:2100000-2101000,2:4900000-4901000",
}

// checkWindow is the property both grammars share: a spec that names a
// window end parses to a window that starts at or after zero and ends
// after it starts; a spec without one is open-ended (Until 0: down, or
// dead, for good).  Rounding to picoseconds or overflowing units.Time
// must not turn one kind into the other.
func checkWindow(t *testing.T, spec string, from, until int64) {
	t.Helper()
	_, window, _ := strings.Cut(spec, ":")
	if _, _, hasUntil := strings.Cut(window, "-"); hasUntil {
		if from < 0 || until <= from {
			t.Fatalf("%q: window [%d, %d) ps is not a window", spec, from, until)
		}
	} else if from < 0 || until != 0 {
		t.Fatalf("%q: open-ended outage parsed to [%d, %d) ps", spec, from, until)
	}
}

func FuzzParseOutages(f *testing.F) {
	for _, s := range outageSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		list, err := ParseOutages(s)
		if err != nil {
			if list != nil {
				t.Fatalf("%q: outages returned alongside %v", s, err)
			}
			return
		}
		specs := splitTopLevel(s)
		if s == "" {
			specs = nil
		}
		if len(list) != len(specs) {
			t.Fatalf("%q: %d outages from %d specs", s, len(list), len(specs))
		}
		for i, o := range list {
			checkWindow(t, strings.TrimSpace(specs[i]), int64(o.From), int64(o.Until))
		}
	})
}

func FuzzParseNodeOutages(f *testing.F) {
	for _, s := range nodeOutageSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		list, err := ParseNodeOutages(s)
		if err != nil {
			if list != nil {
				t.Fatalf("%q: outages returned alongside %v", s, err)
			}
			return
		}
		specs := splitTopLevel(s)
		if s == "" {
			specs = nil
		}
		if len(list) != len(specs) {
			t.Fatalf("%q: %d outages from %d specs", s, len(list), len(specs))
		}
		for i, o := range list {
			checkWindow(t, strings.TrimSpace(specs[i]), int64(o.From), int64(o.Until))
		}
	})
}
