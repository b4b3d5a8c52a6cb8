// Package detsource exercises the detsource analyzer: wall-clock reads
// and global-source randomness are flagged; seeded generators are not.
package detsource

import (
	"math/rand"
	"time"
)

// bad uses every banned determinism-breaking source.
func bad() (int64, int) {
	t := time.Now()     // want `time\.Now reads the wall clock`
	d := time.Since(t)  // want `time\.Since reads the wall clock`
	n := rand.Intn(8)   // want `rand\.Intn draws from the process-global source`
	f := rand.Float64() // want `rand\.Float64 draws from the process-global source`
	time.Sleep(d)       // want `time\.Sleep reads the wall clock`
	return t.UnixNano() + int64(f), n
}

// badRef flags a bare function-value reference too: passing time.Now
// around is as nondeterministic as calling it.
func badRef() func() time.Time {
	return time.Now // want `time\.Now reads the wall clock`
}

// badFaultPlan mimics a fault-injection plan written against the
// process-global source: the drop decision would depend on whatever
// else consumed the global stream, so chaos runs would not replay.
// The registered pattern is internal/fault's seeded splitmix64 PRNG.
func badFaultPlan(dropRate float64) bool {
	return rand.Float64() < dropRate // want `rand\.Float64 draws from the process-global source`
}

// badWaiver waives another analyzer: a //lint:allow names one rule and
// leaves every other rule's finding on its line standing.
func badWaiver() time.Time {
	return time.Now() //lint:allow dimcheck waives dimcheck only // want `time\.Now reads the wall clock`
}
