// Package fault is the deterministic fault-injection subsystem for the
// Arctic fabric model.
//
// A Plan is built once from a Config and consulted by the network layer
// at every link transmission.  All randomness comes from a splitmix64
// generator seeded from the config — never the global math/rand state,
// never the wall clock — so a fault-injected run is exactly as
// reproducible as a pristine one: same seed, same faults, same virtual
// timeline, bit for bit.  Each link draws from its own stream (derived
// from the plan seed and the link name), so adding a link to the
// topology or reordering link construction does not perturb the faults
// seen by the others.
//
// Three composable link fault models are supported:
//
//   - per-link packet drop (the packet occupies the wire, then vanishes)
//   - per-link packet corruption (the CRC check at the next router
//     stage fires and the stage discards the packet)
//   - whole-link outage (nothing gets through during the window)
//
// The package is part of the simulation event path: the determinism
// analyzers (detsource, maprange, ...) apply to it in full.
package fault

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hyades/internal/units"
)

// PRNG is a splitmix64 generator: 64 bits of state, one add and three
// xor-shift-multiply mixes per draw.  It is tiny, splittable (any seed
// gives an independent-looking stream) and fully deterministic, which is
// exactly what a reproducible fault plan needs.  It is registered with
// the detsource analyzer as an approved determinism source.
type PRNG struct {
	state uint64
}

// NewPRNG returns a generator seeded with seed.
func NewPRNG(seed uint64) *PRNG { return &PRNG{state: seed} }

// Uint64 returns the next 64 draws bits of the stream.
func (r *PRNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a draw uniform in [0, 1): the top 53 bits of Uint64
// scaled by 2^-53, the usual IEEE-double construction.
func (r *PRNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Outage takes a link down for a virtual-time window.  Until <= 0 means
// "forever" (a permanently failed link).
type Outage struct {
	Link  string     // link name or trailing-* prefix pattern
	From  units.Time // window start (inclusive)
	Until units.Time // window end (exclusive); <= 0 = forever
}

// active reports whether the outage covers virtual time t.
func (o Outage) active(t units.Time) bool {
	if t < o.From {
		return false
	}
	return o.Until <= 0 || t < o.Until
}

// Config selects the faults to inject.  The zero value injects nothing.
type Config struct {
	Seed        uint64  // stream seed; runs with equal seeds see equal faults
	DropRate    float64 // per-packet, per-link silent-drop probability
	CorruptRate float64 // per-packet, per-link corruption probability
	Outages     []Outage
	NodeOutages []NodeOutage // whole-node crashes (see node.go)
}

// Enabled reports whether the config injects any fault at all.  The
// cluster layer uses it to gate the reliability protocol: a fault-free
// run carries zero protocol overhead and its packet counts and timings
// are identical to a build without this package.
func (c Config) Enabled() bool {
	return c.DropRate > 0 || c.CorruptRate > 0 || len(c.Outages) > 0 ||
		len(c.NodeOutages) > 0
}

// NodesEnabled reports whether the config crashes whole nodes; the
// cluster layer uses it to gate heartbeat-based dead-peer detection and
// the crash-recovery controller.
func (c Config) NodesEnabled() bool { return len(c.NodeOutages) > 0 }

// Validate rejects a config that a machine of the given node count
// cannot execute.  A drop or corrupt rate must be a probability: NaN or
// a negative rate would silently inject nothing (Enabled tests > 0).
// A node outage may not name a node the machine lacks: an exact index
// out of range matches nothing and would silently inject no fault — a
// typo, like a duplicate spec.  And one node's crash windows may not
// contradict each other (NodeFault.validate).
func (c Config) Validate(nodes int) error {
	if !(c.DropRate >= 0 && c.DropRate <= 1) {
		return fmt.Errorf("fault: drop rate %v is not a probability in [0, 1]", c.DropRate)
	}
	if !(c.CorruptRate >= 0 && c.CorruptRate <= 1) {
		return fmt.Errorf("fault: corrupt rate %v is not a probability in [0, 1]", c.CorruptRate)
	}
	if !c.NodesEnabled() {
		return nil
	}
	for _, o := range c.NodeOutages {
		if idx, err := strconv.Atoi(o.Node); err == nil && (idx < 0 || idx >= nodes) {
			return fmt.Errorf("fault: node outage names node %d, but the machine has nodes 0..%d", idx, nodes-1)
		}
	}
	p := NewPlan(c)
	for i := 0; i < nodes; i++ {
		if err := p.Node(i).validate(); err != nil {
			return err
		}
	}
	return nil
}

// Plan is a compiled Config: per-link PRNG streams plus the static
// outage windows.  Build one with NewPlan and share it
// across the fabric; it is not safe for concurrent use outside the DES
// baton discipline.
type Plan struct {
	cfg Config
	// links caches per-link state by name.  Insertion-ordered slice, not
	// a map: Plan is on the event path and bans map iteration.
	links []*Link
	// nodes caches compiled per-node crash plans the same way.
	nodes []*NodeFault
}

// NewPlan compiles cfg.
func NewPlan(cfg Config) *Plan { return &Plan{cfg: cfg} }

// Link returns the fault state for the named link, creating it on first
// use.  The fabric calls this once per link at construction time, so
// the linear scan never runs hot.
func (p *Plan) Link(name string) *Link {
	for _, l := range p.links {
		if l.name == name {
			return l
		}
	}
	l := &Link{
		name: name,
		rng:  NewPRNG(streamSeed(p.cfg.Seed, name)),
		plan: p,
	}
	for _, o := range p.cfg.Outages {
		if matchLink(o.Link, name) {
			l.outages = append(l.outages, o)
		}
	}
	p.links = append(p.links, l)
	return l
}

// Unmatched returns the pattern of each outage that selects none of the
// links built from the plan so far, in plan order.  Such an outage
// injects nothing: a typo, or a link only a larger fabric has.
func (p *Plan) Unmatched() []string {
	var bad []string
	for _, o := range p.cfg.Outages {
		if !slices.ContainsFunc(p.links, func(l *Link) bool { return matchLink(o.Link, l.name) }) {
			bad = append(bad, o.Link)
		}
	}
	return bad
}

// streamSeed derives an independent per-link seed from the plan seed
// and the link name: FNV-1a over the name, mixed with the seed through
// one splitmix step so that nearby seeds do not yield nearby streams.
func streamSeed(seed uint64, name string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	return NewPRNG(seed ^ h).Uint64()
}

// matchLink reports whether pattern selects the link name.  A pattern
// is an exact name, or a prefix ending in '*' ("up(s0,*" selects every
// up-link leaving the leaf stage), or "*" for all links.
func matchLink(pattern, name string) bool {
	if pattern == "*" {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(name, pattern[:len(pattern)-1])
	}
	return pattern == name
}

// Verdict is the fate the plan assigns to one packet transmission.
type Verdict int

const (
	// Deliver: the packet crosses the link unharmed.
	Deliver Verdict = iota
	// Drop: the packet occupies the wire but never arrives.
	Drop
	// Corrupt: the packet arrives with a bad CRC and is discarded at
	// the next router stage.
	Corrupt
)

// Link is the per-link fault state.
type Link struct {
	name    string
	rng     *PRNG
	plan    *Plan
	outages []Outage
}

// Down reports whether the link is in an outage window at time t.
func (l *Link) Down(t units.Time) bool {
	for _, o := range l.outages {
		if o.active(t) {
			return true
		}
	}
	return false
}

// Transmit draws the fate of one packet crossing the link at time t.
// It always consumes exactly two draws from the link's stream (drop,
// then corrupt), so the verdict sequence of one link is independent of
// the rates chosen for any other — changing a rate changes which side
// of the threshold each draw lands on, never the draws themselves.
func (l *Link) Transmit(t units.Time) Verdict {
	dropDraw := l.rng.Float64()
	corruptDraw := l.rng.Float64()
	if l.Down(t) {
		return Drop
	}
	if cfg := l.plan.cfg; cfg.DropRate > 0 && dropDraw < cfg.DropRate {
		return Drop
	} else if cfg.CorruptRate > 0 && corruptDraw < cfg.CorruptRate {
		return Corrupt
	}
	return Deliver
}

// ParseOutage parses the -link-outage flag grammar:
//
//	LINK            whole-run outage on LINK
//	LINK:FROM       outage from FROM microseconds onward
//	LINK:FROM-UNTIL outage over [FROM, UNTIL) microseconds
//
// LINK may use the trailing-* prefix wildcard.
func ParseOutage(s string) (Outage, error) {
	link, from, until, err := linkGrammar.parse(s)
	if err != nil {
		return Outage{}, err
	}
	return Outage{Link: link, From: from, Until: until}, nil
}

// outageGrammar words the errors of one outage flag; each text is a
// format taking the spec (and, for a bad instant, the cause).
type outageGrammar struct {
	emptyName, badFrom, badUntil, emptyWindow string
}

var linkGrammar = outageGrammar{
	emptyName:   "fault: empty link name in outage %q",
	badFrom:     "fault: bad outage window start in %q: %v",
	badUntil:    "fault: bad outage window end in %q: %v",
	emptyWindow: "fault: empty outage window in %q",
}

// parse reads NAME[:FROM[-UNTIL]], the grammar both outage flags share,
// with the instants in microseconds.  No FROM means from t=0; no UNTIL
// leaves until at 0, for good.
func (g *outageGrammar) parse(s string) (name string, from, until units.Time, err error) {
	name, window, hasWindow := strings.Cut(s, ":")
	if name == "" {
		return "", 0, 0, fmt.Errorf(g.emptyName, s)
	}
	if !hasWindow {
		return name, 0, 0, nil
	}
	fromUS, untilUS, hasUntil := strings.Cut(window, "-")
	if from, err = parseInstant(fromUS); err != nil {
		return "", 0, 0, fmt.Errorf(g.badFrom, s, err)
	}
	if hasUntil {
		if until, err = parseInstant(untilUS); err != nil {
			return "", 0, 0, fmt.Errorf(g.badUntil, s, err)
		}
		if until <= from {
			return "", 0, 0, fmt.Errorf(g.emptyWindow, s)
		}
	}
	return name, from, until, nil
}

// maxInstantUS is the latest instant a window may name, in
// microseconds: the last whole microsecond a units.Time holds.
const maxInstantUS = float64(units.Never / units.Microsecond)

// parseInstant parses a window instant given in microseconds.  It must
// be finite and in [0, maxInstantUS]: past that the conversion to
// picoseconds wraps, and a window would become a permanent outage or an
// empty one.  The window checks compare the converted Times, so a
// window narrower than a picosecond is empty, not permanent.
func parseInstant(s string) (units.Time, error) {
	us, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(us >= 0 && us <= maxInstantUS) { // false for NaN too
		return 0, fmt.Errorf("%s is outside [0, %.0f] microseconds", s, maxInstantUS)
	}
	return units.Micros(us), nil
}

// ParseOutages parses a comma-separated list of outage specs.
func ParseOutages(s string) ([]Outage, error) { return parseList(s, "outage", ParseOutage) }

// parseList parses a comma-separated list of specs, one of them per
// parse.  Link names themselves contain commas — up(s0,1,p0) — so only
// commas outside parentheses separate specs.  An exact duplicate (same
// name, same window) is rejected: it is a typo, not a request to fail
// the thing twice, and letting it through would silently change
// nothing.
func parseList[T comparable](s, what string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var out []T
	seen := map[T]bool{}
	for _, part := range splitTopLevel(s) {
		part = strings.TrimSpace(part)
		o, err := parse(part)
		if err != nil {
			return nil, err
		}
		if seen[o] {
			return nil, fmt.Errorf("fault: duplicate %s spec %q", what, part)
		}
		seen[o] = true
		out = append(out, o)
	}
	return out, nil
}

// splitTopLevel splits s at commas that are not enclosed in
// parentheses.  An unbalanced close resets the depth rather than going
// negative, so a malformed name still splits somewhere and the
// resulting fragment fails in ParseOutage with a useful message.
func splitTopLevel(s string) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}
