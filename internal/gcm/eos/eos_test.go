package eos

import (
	"math"
	"testing"
	"testing/quick"

	"hyades/internal/gcm/grid"
)

func TestOceanBuoyancySigns(t *testing.T) {
	e := DefaultOcean()
	if b := e.Buoyancy(e.T0, e.S0, 0); b != 0 {
		t.Fatalf("reference state buoyancy = %g", b)
	}
	if b := e.Buoyancy(e.T0+5, e.S0, 0); b <= 0 {
		t.Fatal("warm water must be buoyant")
	}
	if b := e.Buoyancy(e.T0, e.S0+2, 0); b >= 0 {
		t.Fatal("salty water must be dense")
	}
}

func TestOceanLinearity(t *testing.T) {
	e := DefaultOcean()
	f := func(dt1, dt2, ds float64) bool {
		dt1, dt2, ds = math.Mod(dt1, 30), math.Mod(dt2, 30), math.Mod(ds, 5)
		b1 := e.Buoyancy(e.T0+dt1, e.S0+ds, 0)
		b2 := e.Buoyancy(e.T0+dt2, e.S0+ds, 0)
		bm := e.Buoyancy(e.T0+(dt1+dt2)/2, e.S0+ds, 0)
		return math.Abs((b1+b2)/2-bm) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOceanExpansionCoefficient(t *testing.T) {
	e := DefaultOcean()
	db := e.Buoyancy(e.T0+1, e.S0, 0) - e.Buoyancy(e.T0, e.S0, 0)
	if math.Abs(db-grid.Gravity*e.Alpha) > 1e-12 {
		t.Fatalf("db/dT = %g, want g*alpha = %g", db, grid.Gravity*e.Alpha)
	}
}

func TestAtmosphereBuoyancy(t *testing.T) {
	e := DefaultAtmosphere()
	if b := e.Buoyancy(e.Theta0, e.Q0, 0); b != 0 {
		t.Fatalf("reference buoyancy = %g", b)
	}
	if b := e.Buoyancy(e.Theta0+10, e.Q0, 0); b <= 0 {
		t.Fatal("warm air must rise")
	}
	// Virtual effect: moist air is buoyant at equal theta.
	if b := e.Buoyancy(e.Theta0, e.Q0+0.01, 0); b <= 0 {
		t.Fatal("moist air must be buoyant (virtual temperature)")
	}
	// 1 K of warmth ~ g/theta0 of buoyancy.
	db := e.Buoyancy(e.Theta0+1, e.Q0, 0)
	if math.Abs(db-grid.Gravity/e.Theta0) > 1e-12 {
		t.Fatalf("db/dtheta = %g", db)
	}
}

func TestFlopCountsPositive(t *testing.T) {
	if DefaultOcean().FlopsPerCell() <= 0 || DefaultAtmosphere().FlopsPerCell() <= 0 {
		t.Fatal("flop counts must be positive")
	}
}

// TestBuoyancyRowMatchesBuoyancy holds the row form to the cell form bit
// for bit, and to the cells it was given: dst sets the extent.
func TestBuoyancyRowMatchesBuoyancy(t *testing.T) {
	for _, e := range []EOS{DefaultOcean(), DefaultAtmosphere()} {
		t1 := []float64{-2, 0, 9.99, 10, 31.5, 290, 311.25}
		t2 := []float64{0, 0.004, 0.02, 33.1, 35, 36.7, 40}
		dst := []float64{-1, -1, -1, -1, -1, -1}
		e.BuoyancyRow(dst[:5], t1, t2, 3)
		for n, got := range dst[:5] {
			if want := e.Buoyancy(t1[n], t2[n], 3); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%T: row[%d] = %v, cell form %v", e, n, got, want)
			}
		}
		if dst[5] != -1 {
			t.Errorf("%T: wrote past dst", e)
		}
	}
}
