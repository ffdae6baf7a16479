// Package profile gives the commands their -cpuprofile and -memprofile
// flags: a CPU profile of the whole run, and an allocation profile
// written at exit.
package profile

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profiling flags a command registered.
type Flags struct {
	cpu, mem *string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write an allocation profile to this file at exit"),
	}
}

// Start starts the CPU profile, if one was asked for, and returns the
// function that stops it and writes the allocation profile, if one was
// asked for; the command defers it. Errors finishing either profile go
// to stderr under the command's name, since the run they follow has
// already produced its output.
func (f *Flags) Start(command string) (stop func(), err error) {
	var cpu *os.File
	if *f.cpu != "" {
		if cpu, err = os.Create(*f.cpu); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: -cpuprofile: %v\n", command, err)
			}
		}
		if *f.mem != "" {
			if err := writeAllocs(*f.mem); err != nil {
				fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", command, err)
			}
		}
	}, nil
}

func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // flush recently freed objects so the profile shows live + alloc space accurately
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
