package fault

import (
	"strings"
	"testing"

	"hyades/internal/units"
)

func TestPRNGDeterminism(t *testing.T) {
	a, b := NewPRNG(42), NewPRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("equal seeds diverged at draw %d", i)
		}
	}
	c := NewPRNG(43)
	same := 0
	a = NewPRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 42 and 43 collided on %d of 1000 draws", same)
	}
}

func TestPRNGFloat64Range(t *testing.T) {
	r := NewPRNG(7)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean of %d draws = %v, want ~0.5", n, mean)
	}
}

func TestPerLinkStreamsIndependent(t *testing.T) {
	// The same link name under the same plan seed must replay the same
	// stream; different links must not share one.
	p1 := NewPlan(Config{Seed: 9, DropRate: 0.5})
	p2 := NewPlan(Config{Seed: 9, DropRate: 0.5})
	l1a, l1b := p1.Link("L0.up0"), p2.Link("L0.up0")
	for i := 0; i < 100; i++ {
		if l1a.Transmit(0) != l1b.Transmit(0) {
			t.Fatalf("same link, same seed: verdicts diverged at %d", i)
		}
	}
	other := p1.Link("L0.up1")
	diverged := false
	ref := NewPlan(Config{Seed: 9, DropRate: 0.5}).Link("L0.up0")
	for i := 0; i < 100; i++ {
		if other.Transmit(0) != ref.Transmit(0) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatalf("distinct links replayed an identical verdict stream")
	}
}

func TestLinkCaching(t *testing.T) {
	p := NewPlan(Config{Seed: 1})
	if p.Link("a") != p.Link("a") {
		t.Fatalf("Link not cached per name")
	}
}

func TestTransmitConsumesFixedDraws(t *testing.T) {
	// A link with zero rates must consume draws at the same pace as one
	// with nonzero rates, so enabling corruption does not shift the
	// drop pattern.
	pa := NewPlan(Config{Seed: 5, DropRate: 0.3})
	pb := NewPlan(Config{Seed: 5, DropRate: 0.3, CorruptRate: 0.0001})
	la, lb := pa.Link("x"), pb.Link("x")
	drops := func(l *Link) (n int) {
		for i := 0; i < 2000; i++ {
			if l.Transmit(0) == Drop {
				n++
			}
		}
		return n
	}
	if da, db := drops(la), drops(lb); da != db && abs(da-db) > 2 {
		// The rare Corrupt verdict can only replace a Deliver, never a
		// Drop, so drop counts must match exactly.
		t.Fatalf("enabling corruption changed the drop pattern: %d vs %d", da, db)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestDropRateStatistics(t *testing.T) {
	l := NewPlan(Config{Seed: 77, DropRate: 0.01}).Link("y")
	drops := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if l.Transmit(0) == Drop {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.008 || got > 0.012 {
		t.Fatalf("drop rate = %v, want ~0.01", got)
	}
}

func TestOutageWindows(t *testing.T) {
	p := NewPlan(Config{Outages: []Outage{
		{Link: "L1.*", From: 10 * units.Microsecond, Until: 20 * units.Microsecond},
		{Link: "dead", From: 0},
	}})
	l := p.Link("L1.up3")
	if l.Down(5 * units.Microsecond) {
		t.Fatalf("down before window")
	}
	if !l.Down(10 * units.Microsecond) {
		t.Fatalf("not down at window start")
	}
	if !l.Down(19 * units.Microsecond) {
		t.Fatalf("not down inside window")
	}
	if l.Down(20 * units.Microsecond) {
		t.Fatalf("down at window end (exclusive)")
	}
	if p.Link("L0.up0").Down(15 * units.Microsecond) {
		t.Fatalf("pattern L1.* matched an L0 link")
	}
	d := p.Link("dead")
	if !d.Down(0) || !d.Down(units.Hour) {
		t.Fatalf("Until<=0 outage is not permanent")
	}
	if v := d.Transmit(units.Microsecond); v != Drop {
		t.Fatalf("Transmit on a downed link = %v, want Drop", v)
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatalf("zero config reports enabled")
	}
	if (Config{Seed: 123}).Enabled() {
		t.Fatalf("seed alone reports enabled")
	}
	for _, c := range []Config{
		{DropRate: 1e-3},
		{CorruptRate: 1e-3},
		{Outages: []Outage{{Link: "x"}}},
	} {
		if !c.Enabled() {
			t.Fatalf("config %+v reports disabled", c)
		}
	}
}

func TestParseOutage(t *testing.T) {
	cases := []struct {
		in   string
		want Outage
	}{
		{"L0.up1", Outage{Link: "L0.up1"}},
		{"L1.*:100", Outage{Link: "L1.*", From: 100 * units.Microsecond}},
		{"x:10-25.5", Outage{Link: "x", From: 10 * units.Microsecond, Until: units.Micros(25.5)}},
	}
	for _, c := range cases {
		got, err := ParseOutage(c.in)
		if err != nil {
			t.Fatalf("ParseOutage(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseOutage(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", ":10", "x:ten", "x:10-5", "x:10-"} {
		if _, err := ParseOutage(bad); err == nil {
			t.Fatalf("ParseOutage(%q) accepted", bad)
		}
	}
	list, err := ParseOutages("a, b:1-2")
	if err != nil || len(list) != 2 || list[0].Link != "a" || list[1].Link != "b" {
		t.Fatalf("ParseOutages = %+v, %v", list, err)
	}
}

// TestParseOutagesErrors pins the flag grammar's rejections: every
// malformed spec in a list must fail the whole parse with a message
// naming the offending spec, never half-apply.
func TestParseOutagesErrors(t *testing.T) {
	cases := []struct {
		in      string
		errWant string // substring the error must carry
	}{
		// Malformed windows.
		{"a:ten", "bad outage window start"},
		{"a:1-two", "bad outage window end"},
		{"a:1-2-3", "bad outage window end"}, // extra dash lands in the end field
		{"a:-5", "bad outage window start"},  // empty start before the dash
		{"a:10-", "bad outage window end"},   // dangling dash
		{":10", "empty link name"},
		// Reversed and empty ranges.
		{"a:10-5", "empty outage window"},
		{"a:5-5", "empty outage window"},
		// Duplicates, whole-run and windowed, in any list position.
		{"a,a", `duplicate outage spec "a"`},
		{"a:1-2, b, a:1-2", `duplicate outage spec "a:1-2"`},
		{"up(s0,1,p0),up(s0,1,p0)", `duplicate outage spec "up(s0,1,p0)"`},
		// A malformed spec anywhere fails the list, even after good ones.
		{"a:1-2, b:oops", "bad outage window start"},
	}
	for _, c := range cases {
		list, err := ParseOutages(c.in)
		if err == nil {
			t.Errorf("ParseOutages(%q) accepted: %+v", c.in, list)
			continue
		}
		if list != nil {
			t.Errorf("ParseOutages(%q) returned outages alongside the error: %+v", c.in, list)
		}
		if !strings.Contains(err.Error(), c.errWant) {
			t.Errorf("ParseOutages(%q) error = %q, want it to mention %q", c.in, err, c.errWant)
		}
	}

	// Same link with different windows is not a duplicate: that is how
	// a flapping link is written.
	list, err := ParseOutages("a:1-2, a:3-4, a")
	if err != nil || len(list) != 3 {
		t.Errorf("flapping-link specs rejected: %+v, %v", list, err)
	}
}

// Arctic link names contain commas — up(s0,1,p0) — so ParseOutages
// must split only at top-level commas.  A naive split turned
// 'up(s0,1,*' into three outages, one of them the match-everything
// pattern "*", which silently downed the whole fabric.
func TestParseOutagesParenthesizedNames(t *testing.T) {
	// The README example: a windowed injection-link outage plus a
	// permanent switch-stage outage — exactly two specs.
	list, err := ParseOutages("inject(0):1000-3000,up(s0,1,p0)")
	if err != nil {
		t.Fatal(err)
	}
	want := []Outage{
		{Link: "inject(0)", From: 1000 * units.Microsecond, Until: 3000 * units.Microsecond},
		{Link: "up(s0,1,p0)"},
	}
	if len(list) != len(want) {
		t.Fatalf("ParseOutages = %+v, want %+v", list, want)
	}
	for i := range want {
		if list[i] != want[i] {
			t.Errorf("outage %d = %+v, want %+v", i, list[i], want[i])
		}
	}

	// A prefix wildcard leaves the paren unclosed; it must still be a
	// single spec, and must match only that router's up ports.
	list, err = ParseOutages("up(s0,1,*")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0] != (Outage{Link: "up(s0,1,*"}) {
		t.Fatalf("wildcard spec fragmented: %+v", list)
	}
	if !matchLink(list[0].Link, "up(s0,1,p2)") {
		t.Error("wildcard does not match its own router's port")
	}
	if matchLink(list[0].Link, "inject(0)") || matchLink(list[0].Link, "up(s0,2,p0)") {
		t.Error("wildcard leaks onto unrelated links")
	}
}
