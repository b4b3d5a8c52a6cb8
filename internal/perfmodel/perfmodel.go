// Package perfmodel implements the analytical performance model of the
// paper's §5.2-§5.4: equations (4)-(13) for the PS/DS phase times and
// total runtime, and the Potential Floating-Point Performance metric
// Pfpp of equations (14)-(15).
//
// The model takes per-phase operation counts (Nps, Nds), per-processor
// problem sizes (nxyz, nxy), measured communication-primitive costs
// (texchxyz, texchxy, tgsum) and measured compute rates (Fps, Fds).
// Feeding it the paper's Fig. 11 parameters reproduces the §5.3
// validation (Tcomm = 30.1 min, Tcomp = 151 min against 183 min
// observed) and the Fig. 12 Pfpp table; feeding it values measured on
// the simulated cluster reproduces the same analysis end to end.
package perfmodel

import (
	"hyades/internal/units"
)

// ExchangesPerStep is the number of 3-D halo exchanges per PS phase
// (the five model state variables; eq. 6).
const ExchangesPerStep = 5

// DSExchangesPerIter and DSGsumsPerIter are the per-solver-iteration
// communication counts (eqs. 9-10).
const (
	DSExchangesPerIter = 2
	DSGsumsPerIter     = 2
)

// PS holds the prognostic-phase parameters (paper Fig. 11, upper).
type PS struct {
	Nps       float64    // flops per grid cell per PS phase
	Nxyz      int        // 3-D cells per processor
	Texchxyz  units.Time // one 3-D halo exchange
	FpsMFlops float64    // measured PS compute rate
}

// ComputeTime is eq. (5): Nps*nxyz/Fps.
func (p PS) ComputeTime() units.Time {
	return units.Seconds(p.Nps * float64(p.Nxyz) / (p.FpsMFlops * 1e6))
}

// ExchangeTime is eq. (6): 5*texchxyz.
func (p PS) ExchangeTime() units.Time {
	return ExchangesPerStep * p.Texchxyz
}

// Time is eq. (4): one full PS phase.
func (p PS) Time() units.Time { return p.ComputeTime() + p.ExchangeTime() }

// Pfpp is eq. (14): the per-processor rate if computation were free,
// in MFlop/s.
func (p PS) Pfpp() float64 {
	return p.Nps * float64(p.Nxyz) / p.ExchangeTime().Seconds() / 1e6
}

// DS holds the diagnostic-phase parameters (paper Fig. 11, lower).
type DS struct {
	Nds       float64    // flops per vertical column per solver iteration
	Nxy       int        // columns per processor
	Tgsum     units.Time // one global sum
	Texchxy   units.Time // one 2-D halo exchange
	FdsMFlops float64    // measured DS compute rate
}

// ComputeTime is eq. (8): Nds*nxy/Fds.
func (d DS) ComputeTime() units.Time {
	return units.Seconds(d.Nds * float64(d.Nxy) / (d.FdsMFlops * 1e6))
}

// ExchangeTime is eq. (9): 2*texchxy.
func (d DS) ExchangeTime() units.Time { return DSExchangesPerIter * d.Texchxy }

// GsumTime is eq. (10): 2*tgsum.
func (d DS) GsumTime() units.Time { return DSGsumsPerIter * d.Tgsum }

// Time is eq. (7): one solver iteration.
func (d DS) Time() units.Time {
	return d.ComputeTime() + d.ExchangeTime() + d.GsumTime()
}

// CommTime is the per-iteration communication total.
func (d DS) CommTime() units.Time { return d.ExchangeTime() + d.GsumTime() }

// Pfpp is eq. (15).
func (d DS) Pfpp() float64 {
	return d.Nds * float64(d.Nxy) / d.CommTime().Seconds() / 1e6
}

// Experiment describes a numerical experiment for eqs. (11)-(13).
type Experiment struct {
	PS PS
	DS DS
	Nt int     // time steps
	Ni float64 // mean solver iterations per step
}

// Trun is eq. (11): total runtime.
func (e Experiment) Trun() units.Time {
	return units.Time(float64(e.Nt)*float64(e.PS.Time()) +
		float64(e.Nt)*e.Ni*float64(e.DS.Time()))
}

// Tcomm is eq. (12): total communication time.
func (e Experiment) Tcomm() units.Time {
	perStep := float64(e.PS.ExchangeTime()) + e.Ni*float64(e.DS.CommTime())
	return units.Time(float64(e.Nt) * perStep)
}

// Tcomp is eq. (13): total computation time.
func (e Experiment) Tcomp() units.Time {
	perStep := float64(e.PS.ComputeTime()) + e.Ni*float64(e.DS.ComputeTime())
	return units.Time(float64(e.Nt) * perStep)
}

// ---- The paper's published parameter values (Fig. 11) ----

// PaperAtmospherePS returns the atmosphere PS row of Fig. 11.
func PaperAtmospherePS() PS {
	return PS{Nps: 781, Nxyz: 5120, Texchxyz: 1640 * units.Microsecond, FpsMFlops: 50}
}

// PaperOceanPS returns the ocean PS row of Fig. 11.
func PaperOceanPS() PS {
	return PS{Nps: 751, Nxyz: 15360, Texchxyz: 4573 * units.Microsecond, FpsMFlops: 50}
}

// PaperDS returns the DS row of Fig. 11 (identical for both isomorphs).
func PaperDS() DS {
	return DS{Nds: 36, Nxy: 1024, Tgsum: units.Micros(13.5), Texchxy: 115 * units.Microsecond, FdsMFlops: 60}
}

// PaperValidation returns the §5.3 one-year atmospheric experiment:
// Nt = 77760, Ni = 60, against 183 wall-clock minutes observed.
func PaperValidation() (e Experiment, observed units.Time) {
	return Experiment{PS: PaperAtmospherePS(), DS: PaperDS(), Nt: 77760, Ni: 60},
		183 * units.Minute
}

// InterconnectRow is one line of the Fig. 12 Pfpp table.
type InterconnectRow struct {
	Name                     string
	Tgsum, Texchxy, Texchxyz units.Time
	PfppPS, PfppDS, Fps, Fds float64 // MFlop/s
}

// Fig12Row evaluates the Pfpp metrics for an interconnect's measured
// primitive costs at the Fig. 12 configuration (the 2.8125-degree
// atmosphere).
func Fig12Row(name string, tgsum, texchxy, texchxyz units.Time) InterconnectRow {
	ps := PaperAtmospherePS()
	ps.Texchxyz = texchxyz
	ds := PaperDS()
	ds.Tgsum = tgsum
	ds.Texchxy = texchxy
	return InterconnectRow{
		Name:     name,
		Tgsum:    tgsum,
		Texchxy:  texchxy,
		Texchxyz: texchxyz,
		PfppPS:   ps.Pfpp(),
		PfppDS:   ds.Pfpp(),
		Fps:      ps.FpsMFlops,
		Fds:      ds.FdsMFlops,
	}
}

// PaperFig12 returns the published Fig. 12 rows (the paper's measured
// primitive costs on each interconnect; Arctic's are Fig. 11's).
func PaperFig12() []InterconnectRow {
	return []InterconnectRow{
		Fig12Row("F.E.", 942*units.Microsecond, 10008*units.Microsecond, 100000*units.Microsecond),
		Fig12Row("G.E.", 1193*units.Microsecond, 1789*units.Microsecond, 5742*units.Microsecond),
		Fig12Row("Arctic", PaperDS().Tgsum, PaperDS().Texchxy, PaperAtmospherePS().Texchxyz),
	}
}

// DSThreshold returns the communication budget needed to reach a given
// Pfpp,ds — the paper's "to achieve Pfpp,ds of 60 MFlop/s, the sum of
// tgsum and texchxy cannot exceed 306 us" observation.
func DSThreshold(targetMFlops float64) units.Time {
	d := PaperDS()
	// target = Nds*nxy / (2*(tgsum+texchxy)); solve for the sum.
	sum := d.Nds * float64(d.Nxy) / (targetMFlops * 1e6) / 2
	return units.Seconds(sum)
}
