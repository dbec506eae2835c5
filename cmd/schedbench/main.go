// Command schedbench regenerates the tables and figures of EXPERIMENTS.md.
//
// Usage:
//
//	schedbench -list                 # list the experiment suite
//	schedbench -exp E1               # run one experiment
//	schedbench -exp all              # run the whole suite
//	schedbench -exp E1 -quick        # scaled-down sizes (CI smoke run)
//	schedbench -exp E16 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The -cpuprofile / -memprofile flags write pprof profiles of the selected
// experiment run (`go tool pprof <file>`), so perf work can grab profiles
// without instrumenting code.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
)

func main() { os.Exit(realMain()) }

// realMain carries the exit code back to main so deferred cleanup — the CPU
// profile stop and the heap profile write — always runs; os.Exit inside the
// body would silently truncate the profiles.
func realMain() int {
	var (
		exp     = flag.String("exp", "all", "experiment id (E1..E21) or 'all'")
		quick   = flag.Bool("quick", false, "run scaled-down instances")
		list    = flag.Bool("list", false, "list experiments and exit")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile of the run to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "schedbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "schedbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the live heap so the profile shows retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "schedbench:", err)
			}
		}()
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %-6s %s\n       claim: %s\n", e.ID, e.Kind, e.Title, e.Claim)
		}
		return 0
	}
	cfg := bench.Config{Quick: *quick}
	run := func(e bench.Experiment) error {
		out, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *csv {
			if c, ok := out.(interface{ CSV() string }); ok {
				fmt.Printf("# %s %s\n%s\n", e.ID, e.Title, c.CSV())
				return nil
			}
		}
		fmt.Println(out)
		return nil
	}
	if *exp == "all" {
		for _, e := range bench.All() {
			if err := run(e); err != nil {
				fmt.Fprintln(os.Stderr, "schedbench:", err)
				return 1
			}
		}
		return 0
	}
	e, ok := bench.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "schedbench: unknown experiment %q (try -list)\n", *exp)
		return 2
	}
	if err := run(e); err != nil {
		fmt.Fprintln(os.Stderr, "schedbench:", err)
		return 1
	}
	return 0
}
