package kernel

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
)

// The golden-checksum regression suite pins every kernel's output
// bit-for-bit.  The fixtures in testdata/golden.json were recorded from
// the pre-flat-row kernels (the seed tree); any rewrite of the sweeps
// must reproduce the exact same IEEE-754 bit patterns, including the
// overcomputation margin written into the halo region.  Regenerate
// (only for a deliberate numerics change) with:
//
//	go test ./internal/gcm/kernel -run TestGoldenChecksums -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current kernels")

// hashField returns the SHA-256 of a field's full backing array (halo
// included) as raw IEEE-754 bit patterns.
func hashField(f interface{ Raw() []float64 }) string {
	h := sha256.New()
	var w [8]byte
	for _, v := range f.Raw() {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		h.Write(w[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenGrid builds the reference tile: topography with a land block, a
// depth ramp (shaved bottom cells) and unequal level thicknesses, so
// every masking branch of the sweeps is exercised.
func goldenGrid(t *testing.T) *grid.Local {
	t.Helper()
	g, err := grid.NewLocal(grid.Config{
		NX: 10, NY: 8, NZ: 4, DX: 2e4, DY: 2.4e4, Lat0: 40,
		DZ: []float64{150, 250, 400, 700},
		DepthFrac: func(x, y float64) float64 {
			if x > 0.55 && x < 0.8 && y > 0.3 && y < 0.7 {
				return 0 // island
			}
			return 0.35 + 0.65*x*(1-0.3*y)
		},
	}, 0, 0, 10, 8, Halo)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenState fills a state (halo included) with a deterministic
// transcendental pattern: no zeros, no symmetry, distinct per field.
func goldenState(nx, ny, nz int) *State {
	s := NewState(nx, ny, nz)
	fill := func(f *field.F3, a, b, c, off, amp float64) {
		for k := 0; k < nz; k++ {
			for j := -Halo; j < ny+Halo; j++ {
				for i := -Halo; i < nx+Halo; i++ {
					f.Set(i, j, k, off+amp*math.Sin(a*float64(i)+b*float64(j)+c*float64(k)))
				}
			}
		}
	}
	fill(s.U, 0.31, 0.57, 0.83, 0.02, 0.11)
	fill(s.V, 0.43, 0.29, 0.71, -0.01, 0.09)
	fill(s.W, 0.17, 0.61, 0.37, 0, 1e-4)
	fill(s.Theta, 0.23, 0.41, 0.53, 12, 3)
	fill(s.Salt, 0.37, 0.19, 0.47, 35, 0.4)
	// A weak depth gradient keeps most columns stable while leaving a
	// few statically unstable, so ConvectiveAdjust mixes some but not
	// all columns.
	for k := 0; k < nz; k++ {
		for j := -Halo; j < ny+Halo; j++ {
			for i := -Halo; i < nx+Halo; i++ {
				s.Theta.Add(i, j, k, -0.8*float64(k))
			}
		}
	}
	return s
}

func goldenParams() *Params {
	return &Params{
		Dt: 600, AhMom: 120, KhTracer: 60, AvMom: 2e-3, KvTracer: 3e-5,
		BotDrag: 1e-5, EOS: eos.DefaultOcean(),
	}
}

func TestGoldenChecksums(t *testing.T) {
	got := map[string]string{}
	g := goldenGrid(t)
	p := goldenParams()

	// Tracer pipeline over three steps: first step takes the forward-
	// Euler branch, later steps the AB2 branch, with the buffers
	// rotating in between.
	{
		s := goldenState(10, 8, 4)
		var c Counters
		for n := 0; n < 3; n++ {
			ComputeGTracers(g, s, p, &c)
			StepTracers(g, s, p, &c)
			ConvectiveAdjust(g, s, p, &c)
			s.Rotate()
		}
		got["tracers/theta"] = hashField(s.Theta)
		got["tracers/salt"] = hashField(s.Salt)
		got["tracers/gth0"] = hashField(s.gth[0])
		got["tracers/gth1"] = hashField(s.gth[1])
		got["tracers/gs0"] = hashField(s.gs[0])
		got["tracers/gs1"] = hashField(s.gs[1])
	}

	// Momentum pipeline over three steps.
	{
		s := goldenState(10, 8, 4)
		var c Counters
		for n := 0; n < 3; n++ {
			Hydrostatic(g, s, p, &c)
			ComputeGMomentum(g, s, p, &c)
			StepMomentum(g, s, p, &c)
			s.Rotate()
		}
		got["momentum/u"] = hashField(s.U)
		got["momentum/v"] = hashField(s.V)
		got["momentum/phy"] = hashField(s.Phy)
		got["momentum/gu0"] = hashField(s.gu[0])
		got["momentum/gu1"] = hashField(s.gu[1])
		got["momentum/gv0"] = hashField(s.gv[0])
		got["momentum/gv1"] = hashField(s.gv[1])
	}

	// Continuity alone.
	{
		s := goldenState(10, 8, 4)
		var c Counters
		Continuity(g, s, &c)
		got["continuity/w"] = hashField(s.W)
	}

	// The full PS sequence, chained for three steps — the strongest
	// pin: any cross-kernel interaction change shows up here.
	{
		s := goldenState(10, 8, 4)
		var c Counters
		for n := 0; n < 3; n++ {
			ComputeGTracers(g, s, p, &c)
			StepTracers(g, s, p, &c)
			ConvectiveAdjust(g, s, p, &c)
			Hydrostatic(g, s, p, &c)
			ComputeGMomentum(g, s, p, &c)
			StepMomentum(g, s, p, &c)
			Continuity(g, s, &c)
			s.Rotate()
		}
		for name, f := range map[string]*field.F3{
			"u": s.U, "v": s.V, "w": s.W, "theta": s.Theta,
			"salt": s.Salt, "phy": s.Phy,
		} {
			got["fullstep/"+name] = hashField(f)
		}
	}

	checkGolden(t, filepath.Join("testdata", "golden.json"), got, *updateGolden)
}

// checkGolden compares got against the committed fixture, or rewrites
// the fixture when -update is set.
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
