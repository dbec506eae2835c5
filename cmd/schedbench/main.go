// Command schedbench regenerates the tables and figures of EXPERIMENTS.md.
//
// Usage:
//
//	schedbench -list                 # list the experiment suite
//	schedbench -exp E1               # run one experiment
//	schedbench -exp all              # run the whole suite
//	schedbench -exp E1 -quick        # scaled-down sizes (CI smoke run)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		quick = flag.Bool("quick", false, "run scaled-down instances")
		list  = flag.Bool("list", false, "list experiments and exit")
		csv   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %-6s %s\n       claim: %s\n", e.ID, e.Kind, e.Title, e.Claim)
		}
		return
	}
	exps := bench.All()
	if *exp != "all" {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "schedbench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}
	for _, e := range exps {
		out, err := e.Run(bench.Config{Quick: *quick})
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if c, ok := out.(interface{ CSV() string }); ok && *csv {
			fmt.Printf("# %s %s\n%s\n", e.ID, e.Title, c.CSV())
			continue
		}
		fmt.Println(out)
	}
}
