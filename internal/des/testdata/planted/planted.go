// Package planted is the cross-mode fixture of cmd/hyadeslint: a
// package under internal/des, so the sim-core rules apply, with two
// planted violations that each rule sees inside one function body —
// a wall-clock read (detsource) and a raw go statement (nogoroutine).
// The driver's tests run it through the standalone walk and the go-vet
// unit protocol and require byte-identical findings.  testdata
// directories are excluded from ./... pattern walks, so the planted
// violations never taint the real tree's clean run.
package planted

import "time"

var last int64

// Tick reads the host clock where only virtual time may be read.
func Tick() {
	last = time.Now().UnixNano()
}

// Spin starts a goroutine outside the coroutine baton.
func Spin(fn func()) {
	go fn()
}
