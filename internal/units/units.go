// Package units defines the virtual-time, bandwidth and data-size types
// used throughout the Hyades cluster simulation.
//
// Virtual time is an integer count of picoseconds.  The picosecond grain is
// fine enough to represent every hardware constant in the paper exactly
// (the smallest is the 0.15 us Arctic router stage) while the int64 range
// still covers about 106 days of simulated time, far beyond the 183-minute
// production run analysed in Section 5.3.
package units

import (
	"fmt"
	"math"
)

// Time is a point in (or span of) virtual time, in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Never is a sentinel far beyond any reachable simulation time.
const Never Time = math.MaxInt64

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns t expressed in milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Minutes returns t expressed in minutes.
func (t Time) Minutes() float64 { return float64(t) / float64(Minute) }

// String renders the time with an auto-selected unit.
func (t Time) String() string {
	switch abs := t.Abs(); {
	case abs < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case abs < Microsecond:
		return fmt.Sprintf("%.3gns", float64(t)/float64(Nanosecond))
	case abs < Millisecond:
		return fmt.Sprintf("%.4gus", t.Micros())
	case abs < Second:
		return fmt.Sprintf("%.4gms", t.Millis())
	case abs < Minute:
		return fmt.Sprintf("%.4gs", t.Seconds())
	default:
		return fmt.Sprintf("%.4gmin", t.Minutes())
	}
}

// Abs returns the magnitude of t.
func (t Time) Abs() Time {
	if t < 0 {
		return -t
	}
	return t
}

// Micros converts a floating-point microsecond count to a Time.
func Micros(us float64) Time { return Time(math.Round(us * float64(Microsecond))) }

// Seconds converts a floating-point second count to a Time.
func Seconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// Bandwidth is a data rate in bytes per second.
//
// The paper quotes all rates in decimal megabytes per second (e.g. the
// 150 MByte/sec Arctic link, the 110 MByte/sec peak VI payload rate), so
// MBps uses the decimal convention.
type Bandwidth float64

// MBps is one decimal megabyte (1e6 bytes) per second.
const MBps Bandwidth = 1e6

// Bps is one byte per second, Bandwidth's base grain — the named unit
// for making small literal rates explicit.
const Bps Bandwidth = 1

// Transfer returns the time needed to move n bytes at rate bw.
func (bw Bandwidth) Transfer(n int) Time {
	if n <= 0 {
		return 0
	}
	if bw <= 0 {
		return Never
	}
	return Time(math.Round(float64(n) / float64(bw) * float64(Second)))
}

// MBperSec reports the bandwidth in decimal MByte/sec.
func (bw Bandwidth) MBperSec() float64 { return float64(bw) / float64(MBps) }

// Rate computes the effective bandwidth of moving n bytes in d.
func Rate(n int, d Time) Bandwidth {
	if d <= 0 {
		return 0
	}
	return Bandwidth(float64(n) / d.Seconds())
}

// Size is a byte count.  It exists mostly for self-describing formatting
// in reports and benchmarks.
type Size int

// Common sizes.  KiB follows the binary convention used by the paper's
// Figure 7 x-axis (4, 8, ... 131072 bytes).
const (
	Byte Size = 1
	KiB  Size = 1024
	MiB  Size = 1024 * KiB
)

// String renders the size with an auto-selected unit.
func (s Size) String() string {
	switch {
	case s < KiB:
		return fmt.Sprintf("%dB", int(s))
	case s < MiB:
		return fmt.Sprintf("%.4gKiB", float64(s)/float64(KiB))
	default:
		return fmt.Sprintf("%.4gMiB", float64(s)/float64(MiB))
	}
}
