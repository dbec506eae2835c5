// Command tracegen generates workload instances as NDJSON traces (see
// internal/trace) for cmd/schedsim, batch and -stream alike.
//
// Usage:
//
//	tracegen -n 500 -m 4 -seed 7 -kind uniform  > trace.ndjson
//	tracegen -kind pareto -load 1.2             > heavy.ndjson
//	tracegen -kind deadline -horizon 200        > deadline.ndjson
//	tracegen -kind lemma1 -L 32                 > adversarial.ndjson
//	tracegen -n 100000 | schedsim -stream -policy flowtime
//
// Every kind but lemma1 writes -alpha into the trace header. A flag out of
// range exits 2 naming it, and the generated instance is validated before
// anything is written.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds tracegen's flags.
type options struct {
	n, m, horizon              int
	seed                       int64
	kind, out                  string
	load, alpha, slack, l, eps float64
	weighted                   bool
}

// kinds lists the workload generators.
const kinds = "uniform|pareto|bimodal|bursty|deadline|lemma1"

// parse maps the command line onto options. On a syntax error or a value
// out of range it prints the problem, naming the flag, and returns nil.
func parse(args []string, stderr io.Writer) *options {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.IntVar(&o.n, "n", 500, "number of jobs")
	fs.IntVar(&o.m, "m", 4, "number of machines")
	fs.Int64Var(&o.seed, "seed", 1, "rng seed")
	fs.StringVar(&o.kind, "kind", "uniform", kinds)
	fs.Float64Var(&o.load, "load", 0.9, "offered load (arrival workloads)")
	fs.BoolVar(&o.weighted, "weighted", false, "draw job weights from [1,10]")
	fs.Float64Var(&o.alpha, "alpha", 2, "power exponent written to the trace header of every kind but lemma1 (0 omits it)")
	fs.IntVar(&o.horizon, "horizon", 200, "slot horizon (deadline workloads)")
	fs.Float64Var(&o.slack, "slack", 2, "deadline slack factor (deadline workloads)")
	fs.Float64Var(&o.l, "L", 16, "big-job length (lemma1 workloads; Δ=L²)")
	fs.Float64Var(&o.eps, "eps", 0.5, "epsilon (lemma1 workloads)")
	fs.StringVar(&o.out, "o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return nil
	}
	positive := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
	for _, c := range []struct {
		flag, want string
		ok         bool
	}{
		{"kind", "one of " + kinds, strings.Contains("|"+kinds+"|", "|"+o.kind+"|")},
		{"n", "a positive integer", o.n > 0},
		{"m", "a positive integer", o.m > 0},
		{"horizon", "a positive integer", o.horizon > 0},
		{"load", "positive and finite", positive(o.load)},
		{"slack", "positive and finite", positive(o.slack)},
		{"L", "positive and finite", positive(o.l)},
		{"eps", "positive and finite", positive(o.eps)},
		{"alpha", "non-negative and finite", o.alpha >= 0 && !math.IsInf(o.alpha, 1)},
	} {
		if !c.ok {
			fmt.Fprintf(stderr, "tracegen: -%s must be %s, got %s\n", c.flag, c.want, fs.Lookup(c.flag).Value)
			return nil
		}
	}
	return &o
}

// generate builds the instance the options describe.
func (o *options) generate() *sched.Instance {
	switch o.kind {
	case "deadline":
		return workload.RandomDeadline(workload.DeadlineConfig{
			N: o.n, M: o.m, Seed: o.seed, Horizon: o.horizon,
			MinVol: 1, MaxVol: 8, Slack: o.slack, Alpha: o.alpha,
		})
	case "lemma1":
		return workload.Lemma1Instance(o.l, o.eps)
	default: // the arrival workloads
		cfg := workload.DefaultConfig(o.n, o.m, o.seed)
		cfg.Load = o.load
		cfg.Weighted = o.weighted
		switch o.kind {
		case "pareto":
			cfg.Sizes = workload.SizePareto
			cfg.MaxSize = 100
		case "bimodal":
			cfg.Sizes = workload.SizeBimodal
		case "bursty":
			cfg.Arrivals = workload.ArrivalsBursty
			cfg.BurstSize = 20
		}
		ins := workload.Random(cfg)
		ins.Alpha = o.alpha
		return ins
	}
}

// run is the command: it parses args, generates and validates the instance,
// writes it to stdout or -o, and returns the exit status (2 for a bad flag).
func run(args []string, stdout, stderr io.Writer) int {
	o := parse(args, stderr)
	if o == nil {
		return 2
	}
	if err := o.write(stdout); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	return 0
}

// write generates and validates the instance, then encodes it to -o, or to
// stdout without it; a failed Close of the file fails the write.
func (o *options) write(stdout io.Writer) error {
	ins := o.generate()
	if err := ins.Validate(); err != nil {
		return err
	}
	if o.out == "" {
		return trace.WriteInstance(stdout, ins)
	}
	f, err := os.Create(o.out)
	if err != nil {
		return err
	}
	return errors.Join(trace.WriteInstance(f, ins), f.Close())
}
