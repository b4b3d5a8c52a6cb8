package bench

import (
	"testing"

	"hyades/internal/netmodel"
	"hyades/internal/units"
)

// TestArcticPrimitives measures the Fig. 11 communication parameters
// on the simulated Hyades machine.  The paper's values (16 processors,
// 32x32 tiles on 8 SMPs) and ours (16 workers, 32x16 tiles) differ in
// tile shape, so the comparison bands are generous; the orders of
// magnitude and the DS/PS asymmetry must match.
func TestArcticPrimitives(t *testing.T) {
	p, err := MeasureHyades()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Arctic: tgsum=%v texchxy=%v texchxyz(5)=%v texchxyz(15)=%v", p.Tgsum, p.Texchxy, p.Texchxyz, p.Ocean3D)
	check := func(name string, got units.Time, loUs, hiUs float64) {
		if us := got.Micros(); us < loUs || us > hiUs {
			t.Errorf("%s = %.1f us outside [%g, %g]", name, us, loUs, hiUs)
		}
	}
	check("tgsum (paper 13.5us)", p.Tgsum, 9, 20)
	check("texchxy (paper 115us)", p.Texchxy, 60, 180)
	check("texchxyz atm (paper 1640us)", p.Texchxyz, 700, 2500)
	check("texchxyz ocean (paper 4573us)", p.Ocean3D, 2000, 7000)
	if !(p.Tgsum < p.Texchxy && p.Texchxy < p.Texchxyz && p.Texchxyz < p.Ocean3D) {
		t.Errorf("primitive ordering broken: %+v", p)
	}
}

// TestEthernetPrimitives verifies the calibrated Ethernet models land
// near the paper's measured Fig. 12 values.
func TestEthernetPrimitives(t *testing.T) {
	cases := []struct {
		prm                    netmodel.Params
		gsumUs, xyUs, xyzUs    float64
		gsumTol, xyTol, xyzTol float64
	}{
		{netmodel.FastEthernet(), 942, 10008, 100000, 0.5, 0.5, 0.5},
		{netmodel.GigabitEthernet(), 1193, 1789, 5742, 0.5, 0.9, 0.9},
	}
	for _, tc := range cases {
		p, err := MeasureNet(tc.prm)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: tgsum=%v texchxy=%v texchxyz=%v (paper: %g, %g, %g us)",
			tc.prm.Name, p.Tgsum, p.Texchxy, p.Texchxyz, tc.gsumUs, tc.xyUs, tc.xyzUs)
		rel := func(got units.Time, want float64) float64 {
			return (got.Micros() - want) / want
		}
		if r := rel(p.Tgsum, tc.gsumUs); r < -tc.gsumTol || r > tc.gsumTol {
			t.Errorf("%s tgsum off by %+.0f%%", tc.prm.Name, r*100)
		}
		if r := rel(p.Texchxy, tc.xyUs); r < -tc.xyTol || r > tc.xyTol {
			t.Errorf("%s texchxy off by %+.0f%%", tc.prm.Name, r*100)
		}
		if r := rel(p.Texchxyz, tc.xyzUs); r < -tc.xyzTol || r > tc.xyzTol {
			t.Errorf("%s texchxyz off by %+.0f%%", tc.prm.Name, r*100)
		}
	}
}

// TestInterconnectOrdering verifies the headline qualitative result:
// Arctic is roughly an order of magnitude ahead of Gigabit Ethernet,
// which is ahead of Fast Ethernet, on every primitive.
func TestInterconnectOrdering(t *testing.T) {
	arctic, err := MeasureHyades()
	if err != nil {
		t.Fatal(err)
	}
	ge, err := MeasureNet(netmodel.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	fe, err := MeasureNet(netmodel.FastEthernet())
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		name    string
		a, g, f units.Time
	}
	// Note the paper's own Fig. 12: the GE *global sum* is slower than
	// FE's (1193 vs 942 us) — early gigabit NICs had worse small-message
	// latency — so only the exchanges are required to order FE > GE.
	for _, pr := range []pair{
		{"tgsum", arctic.Tgsum, ge.Tgsum, fe.Tgsum},
		{"texchxy", arctic.Texchxy, ge.Texchxy, fe.Texchxy},
		{"texchxyz", arctic.Texchxyz, ge.Texchxyz, fe.Texchxyz},
	} {
		if pr.a >= pr.g {
			t.Errorf("%s: Arctic (%v) not ahead of GE (%v)", pr.name, pr.a, pr.g)
		}
		if float64(pr.g)/float64(pr.a) < 3 {
			t.Errorf("%s: GE only %.1fx worse than Arctic; paper shows order-of-magnitude gaps",
				pr.name, float64(pr.g)/float64(pr.a))
		}
	}
	if fe.Texchxy <= ge.Texchxy || fe.Texchxyz <= ge.Texchxyz {
		t.Errorf("FE exchanges should be far slower than GE: fe=(%v,%v) ge=(%v,%v)",
			fe.Texchxy, fe.Texchxyz, ge.Texchxy, ge.Texchxyz)
	}
}

// TestMyrinetHPVMAnchors verifies the §6 comparison points: a 16-way
// barrier above 50 us (2.5x the Hyades 18-20 us) and ~42 MB/s at 1 KiB.
func TestMyrinetHPVMAnchors(t *testing.T) {
	prm := netmodel.MyrinetHPVM()
	barrier, err := Gsum(NetRunner{Prm: prm}, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("HPVM 16-way barrier/gsum = %v (paper: >50 us)", barrier)
	if us := barrier.Micros(); us < 40 || us > 80 {
		t.Errorf("HPVM barrier %.1f us outside [40, 80]", us)
	}
	// 1-KiB transfer bandwidth: one-way message cost.
	perceived, err := TransferBandwidth(NetRunner{Prm: prm}, 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	bw := perceived.MBperSec()
	t.Logf("HPVM 1-KiB transfer bandwidth = %.1f MB/s (paper: ~42)", bw)
	if bw < 30 || bw > 55 {
		t.Errorf("HPVM 1-KiB bandwidth %.1f MB/s outside [30, 55]", bw)
	}
}
