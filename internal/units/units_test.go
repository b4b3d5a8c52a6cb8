package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Microsecond != 1_000_000*Picosecond {
		t.Fatal("microsecond scale")
	}
	if got := (150 * Nanosecond).Micros(); got != 0.15 {
		t.Fatalf("150ns = %g us", got)
	}
	if got := (90 * Second).Minutes(); got != 1.5 {
		t.Fatalf("90s = %g min", got)
	}
	if got := Micros(8.6); got != 8600*Nanosecond {
		t.Fatalf("Micros(8.6) = %d ps", int64(got))
	}
	if got := Seconds(0.5); got != 500*Millisecond {
		t.Fatalf("Seconds(0.5) = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500 * Picosecond:            "500ps",
		150 * Nanosecond:            "150ns",
		Micros(8.6):                 "8.6us",
		3 * Millisecond:             "3ms",
		2 * Second:                  "2s",
		183 * Minute:                "183min",
		45*Second + 500*Millisecond: "45.5s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d ps -> %q, want %q", int64(in), got, want)
		}
	}
}

func TestBandwidthTransfer(t *testing.T) {
	bw := 110 * MBps
	if got := bw.Transfer(110_000_000); got != Second {
		t.Fatalf("110MB at 110MB/s = %v", got)
	}
	if got := bw.Transfer(0); got != 0 {
		t.Fatalf("0 bytes = %v", got)
	}
	if got := bw.Transfer(-5); got != 0 {
		t.Fatalf("negative bytes = %v", got)
	}
	if got := Bandwidth(0).Transfer(1); got != Never {
		t.Fatalf("zero bandwidth = %v", got)
	}
	if got := (150 * MBps).MBperSec(); got != 150 {
		t.Fatalf("MBperSec = %g", got)
	}
}

func TestRateInvertsTransfer(t *testing.T) {
	f := func(bytesRaw uint32, mbRaw uint8) bool {
		n := int(bytesRaw%100_000_000) + 1
		bw := Bandwidth(int(mbRaw)+1) * MBps
		d := bw.Transfer(n)
		back := Rate(n, d)
		return math.Abs(float64(back-bw))/float64(bw) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBpsGrain(t *testing.T) {
	if MBps != 1_000_000*Bps {
		t.Fatal("MBps must be one million base grains")
	}
	if got := (150 * Bps).Transfer(300); got != 2*Second {
		t.Fatalf("300B at 150B/s = %v", got)
	}
}

func TestRateDegenerate(t *testing.T) {
	if Rate(100, 0) != 0 {
		t.Fatal("rate over zero time")
	}
}

func TestSizeString(t *testing.T) {
	cases := map[Size]string{
		512:     "512B",
		KiB:     "1KiB",
		9 * KiB: "9KiB",
		2 * MiB: "2MiB",
		1536:    "1.5KiB",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d -> %q, want %q", int(in), got, want)
		}
	}
}

func TestAbs(t *testing.T) {
	if (-5*Second).Abs() != 5*Second || (5*Second).Abs() != 5*Second {
		t.Fatal("Abs broken")
	}
}
