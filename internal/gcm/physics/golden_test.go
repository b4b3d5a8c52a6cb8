package physics

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hyades/internal/gcm/eos"
	"hyades/internal/gcm/field"
	"hyades/internal/gcm/grid"
	"hyades/internal/gcm/kernel"
)

// Golden-checksum regression suite for the physics package: fixtures
// recorded from the pre-flat-row sweep pin AddTendencies bit-for-bit,
// uncoupled and coupled (SST-driven surface fluxes), over the full
// overcomputation margin.  Regenerate (only for a deliberate change)
// with:
//
//	go test ./internal/gcm/physics -run TestGoldenChecksums -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current physics")

func hashField(f interface{ Raw() []float64 }) string {
	h := sha256.New()
	var w [8]byte
	for _, v := range f.Raw() {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		h.Write(w[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenAtm builds a spherical 5-level atmosphere tile and a state with
// deterministic moisture, wind and temperature patterns chosen so both
// branches of the condensation and friction conditionals run.
func goldenAtm(t *testing.T) (*grid.Local, *kernel.State, *kernel.Params) {
	t.Helper()
	g, err := grid.NewLocal(grid.Config{
		NX: 16, NY: 8, NZ: 5, Spherical: true, Lat0: -80, Lat1: 80, LonSpan: 360,
		DZ: []float64{2000, 2000, 2000, 2000, 2000},
	}, 0, 0, 16, 8, kernel.Halo)
	if err != nil {
		t.Fatal(err)
	}
	s := kernel.NewState(16, 8, 5)
	for k := 0; k < 5; k++ {
		for j := -kernel.Halo; j < 8+kernel.Halo; j++ {
			for i := -kernel.Halo; i < 16+kernel.Halo; i++ {
				s.Theta.Set(i, j, k, 270+8*math.Sin(0.4*float64(i)+0.6*float64(j))+4*float64(k))
				s.Salt.Set(i, j, k, 0.012+0.01*math.Sin(0.7*float64(i)-0.3*float64(j)+0.5*float64(k)))
				s.U.Set(i, j, k, 3*math.Cos(0.2*float64(i)+0.5*float64(j)))
				s.V.Set(i, j, k, 2*math.Sin(0.3*float64(i)-0.4*float64(j)))
			}
		}
	}
	p := &kernel.Params{Dt: 405, EOS: eos.DefaultAtmosphere()}
	return g, s, p
}

func TestGoldenChecksums(t *testing.T) {
	got := map[string]string{}

	// Uncoupled: internal equilibrium surface fluxes, two accumulating
	// calls (tendencies add into the G buffers).
	{
		g, s, p := goldenAtm(t)
		ph := New(Default())
		var c kernel.Counters
		ph.AddTendencies(g, s, p, &c)
		ph.AddTendencies(g, s, p, &c)
		got["uncoupled/gu"] = hashField(s.GU())
		got["uncoupled/gv"] = hashField(s.GV())
		got["uncoupled/gth"] = hashField(s.GTh())
		got["uncoupled/gq"] = hashField(s.GS())
	}

	// Coupled: an SST field drives evaporation and sensible heat.
	{
		g, s, p := goldenAtm(t)
		ph := New(Default())
		sst := field.NewF2(16, 8, kernel.Halo)
		for j := -kernel.Halo; j < 8+kernel.Halo; j++ {
			for i := -kernel.Halo; i < 16+kernel.Halo; i++ {
				sst.Set(i, j, 14+9*math.Cos(0.3*float64(j))+2*math.Sin(0.5*float64(i)))
			}
		}
		ph.SST = sst
		var c kernel.Counters
		ph.AddTendencies(g, s, p, &c)
		got["coupled/gth"] = hashField(s.GTh())
		got["coupled/gq"] = hashField(s.GS())
	}

	checkGolden(t, filepath.Join("testdata", "golden.json"), got, *updateGolden)
}

func checkGolden(t *testing.T, path string, got map[string]string, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", path, len(got))
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to record): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: fixture entry %q not produced by the test", path, k)
		} else if g != w {
			t.Errorf("%s: %q = %s, want %s (bit-exact regression)", path, k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: new entry %q not in fixture (run -update after a deliberate change)", path, k)
		}
	}
}
