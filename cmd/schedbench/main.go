// Command schedbench regenerates the tables and figures of EXPERIMENTS.md.
//
// Usage:
//
//	schedbench -list                 # list the experiment suite
//	schedbench -exp E1               # run one experiment
//	schedbench -exp all              # run the whole suite
//	schedbench -exp E1 -quick        # scaled-down sizes (CI smoke run)
//
// An unknown -exp, a bad flag or a stray argument exits 2 before any
// experiment runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs the chosen experiments into
// stdout and returns the exit status (2 for bad usage, 1 for a failed
// experiment).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp   = fs.String("exp", "all", "experiment id (see -list) or 'all'")
		quick = fs.Bool("quick", false, "run scaled-down instances")
		list  = fs.Bool("list", false, "list experiments and exit")
		csv   = fs.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "schedbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "%-4s %-6s %s\n       claim: %s\n", e.ID, e.Kind, e.Title, e.Claim)
		}
		return 0
	}
	exps := bench.All()
	if *exp != "all" {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(stderr, "schedbench: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		exps = []bench.Experiment{e}
	}
	for _, e := range exps {
		out, err := e.Run(bench.Config{Quick: *quick})
		if err != nil {
			fmt.Fprintf(stderr, "schedbench: %s: %v\n", e.ID, err)
			return 1
		}
		if c, ok := out.(interface{ CSV() string }); ok && *csv {
			fmt.Fprintf(stdout, "# %s %s\n%s\n", e.ID, e.Title, c.CSV())
			continue
		}
		fmt.Fprintln(stdout, out)
	}
	return 0
}
