// Package eos provides the equations of state that close the GCM's
// thermodynamics (paper §3.1): buoyancy b as a function of the two
// tracer fields.
//
// The model exploits the isomorphism between the incompressible ocean
// and the compressible atmosphere (paper §3): the same kernel steps
// both fluids, and the only isomorph-specific physics is the buoyancy
// law — a linear seawater EOS for the ocean (tracers: potential
// temperature and salinity) and a dry/virtual potential-temperature law
// for the atmosphere (tracers: potential temperature and specific
// humidity, which reuses the salinity slot).
package eos

import "hyades/internal/gcm/grid"

// EOS maps the two tracer values of a cell to buoyancy (m/s^2),
// positive upward.
type EOS interface {
	// Buoyancy returns b given tracer1 (temperature-like) and tracer2
	// (salinity- or humidity-like) at level k.
	Buoyancy(t1, t2 float64, k int) float64
	// BuoyancyRow sets dst[n] = Buoyancy(t1[n], t2[n], k) for a row of
	// cells at level k: one dynamic call a row for the kernel's sweeps.
	BuoyancyRow(dst, t1, t2 []float64, k int)
	// FlopsPerCell reports the arithmetic cost of one evaluation, for
	// the kernel's operation counting.
	FlopsPerCell() int
}

// LinearOcean is the linear seawater EOS
// b = g * (alpha*(theta - T0) - beta*(S - S0)).
type LinearOcean struct {
	Alpha float64 // thermal expansion (1/K)
	Beta  float64 // haline contraction (1/psu)
	T0    float64 // reference temperature (C)
	S0    float64 // reference salinity (psu)
}

// DefaultOcean returns standard coarse-model coefficients.
func DefaultOcean() LinearOcean {
	return LinearOcean{Alpha: 2e-4, Beta: 7.4e-4, T0: 10, S0: 35}
}

// Buoyancy implements EOS.
func (e LinearOcean) Buoyancy(theta, salt float64, k int) float64 {
	return grid.Gravity * (e.Alpha*(theta-e.T0) - e.Beta*(salt-e.S0))
}

// BuoyancyRow implements EOS.
func (e LinearOcean) BuoyancyRow(dst, theta, salt []float64, k int) {
	theta, salt = theta[:len(dst)], salt[:len(dst)]
	for n := range dst {
		dst[n] = e.Buoyancy(theta[n], salt[n], k)
	}
}

// FlopsPerCell implements EOS (2 subs, 2 muls, 1 sub, 1 mul).
func (e LinearOcean) FlopsPerCell() int { return 6 }

// IdealAtmosphere is the potential-temperature buoyancy law
// b = g * ((theta - Theta0)/Theta0 + 0.61*(q - Q0)),
// with the virtual-temperature effect of moisture.
type IdealAtmosphere struct {
	Theta0 float64 // reference potential temperature (K)
	Q0     float64 // reference specific humidity (kg/kg)
}

// DefaultAtmosphere returns standard reference values.
func DefaultAtmosphere() IdealAtmosphere {
	return IdealAtmosphere{Theta0: 290, Q0: 0}
}

// Buoyancy implements EOS.
func (e IdealAtmosphere) Buoyancy(theta, q float64, k int) float64 {
	return grid.Gravity * ((theta-e.Theta0)/e.Theta0 + 0.61*(q-e.Q0))
}

// BuoyancyRow implements EOS.
func (e IdealAtmosphere) BuoyancyRow(dst, theta, q []float64, k int) {
	theta, q = theta[:len(dst)], q[:len(dst)]
	for n := range dst {
		dst[n] = e.Buoyancy(theta[n], q[n], k)
	}
}

// FlopsPerCell implements EOS.
func (e IdealAtmosphere) FlopsPerCell() int { return 6 }
