// Package prof gives the command-line drivers one pair of profile
// flags, so "where did the host time go" is answered with the tree's
// own binaries: `hyades -cpuprofile cpu.out ...`, then
// `go tool pprof -top hyades cpu.out`.
package prof

import (
	"flag"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles holds the destinations named on the command line.
type Profiles struct{ cpu, mem *string }

// Flags registers -cpuprofile and -memprofile on the default flag set;
// call it before flag.Parse.
func Flags() Profiles {
	return Profiles{
		cpu: flag.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		mem: flag.String("memprofile", "", "write a heap profile to this file when the run ends"),
	}
}

// Start begins the CPU profile, if one was asked for, and returns the
// function that ends it and writes the heap profile; call that as the
// run ends (a log.Fatal on the way loses both).
func (p Profiles) Start() (stop func()) {
	var cpu *os.File
	if *p.cpu != "" {
		cpu = create(*p.cpu)
		if err := pprof.StartCPUProfile(cpu); err != nil {
			log.Fatalf("prof: %v", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			closeFile(cpu)
		}
		if *p.mem != "" {
			f := create(*p.mem)
			runtime.GC() // settle the live heap the profile reports
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("prof: %v", err)
			}
			closeFile(f)
		}
	}
}

func create(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("prof: %v", err)
	}
	return f
}

func closeFile(f *os.File) {
	if err := f.Close(); err != nil {
		log.Fatalf("prof: %v", err)
	}
}
