// Command schedsim runs one scheduling policy on a JSON trace (produced by
// cmd/tracegen) and reports the audited metrics.
//
// Usage:
//
//	schedsim -policy flowtime -eps 0.2 trace.json
//	schedsim -policy wflow -eps 0.2 trace.json
//	schedsim -policy speedscale -eps 0.3 -alpha 2 trace.json
//	schedsim -policy srpt trace.json
//	schedsim -policy energymin deadline.json
//	schedsim -policy greedy trace.json
//	schedsim -policy flowtime -eps 0.2 -dump out.json trace.json
//
// With -stream the trace is NDJSON (tracegen -ndjson), read incrementally
// from a file or stdin ("-" or no argument) into an in-process front door
// (internal/front) with one tenant and one shard — schedserve's feed loop,
// sequencer, checkpoints and report, never materializing the instance. At the
// end of the trace the server drains and its report is printed as indented
// JSON, byte for byte what schedserve prints for the same jobs. Only the
// policies registered in internal/policy stream; -gantt and -dump do not.
//
// -checkpoint P roots a checkpoint lineage at P (P.N.full, P.N.delta and the
// manifest P.lineage; see DESIGN.md), written every -checkpoint-every fed
// jobs and by the drain. -stop-after N stops after the trace's first N jobs,
// drains to the checkpoint and exits 0 without a report, modeling a killed
// process; SIGINT or SIGTERM drains the same way and exits 3. -resume P
// restores the lineage's newest intact checkpoint and replays the trace from
// the top: its jobs ack as duplicates, and the report equals an uninterrupted
// run's. A replay that misses checkpointed jobs or releases new ones before
// them is a different trace and fails.
//
//	tracegen -ndjson -n 100000 | schedsim -stream -policy flowtime -eps 0.2
//	schedsim -stream -policy flowtime -eps 0.2 -checkpoint ck -stop-after 300000 big.ndjson
//	schedsim -stream -policy flowtime -eps 0.2 -resume ck big.ndjson
//
// With -compare the chosen non-preemptive policy (flowtime or wflow), its
// preemptive engine-hosted counterpart (srpt or migratory wsrpt) and the
// pooled preemptive SRPT lower bound all run on the same instance, and the
// report adds the empirical "price of non-preemption" — the ratio of the
// non-preemptive cost to the preemptive one on the matching objective:
//
//	schedsim -compare -policy flowtime -eps 0.2 trace.json
//	schedsim -compare -policy wflow -eps 0.2 trace.json
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/baseline"
	"repro/internal/core/energymin"
	"repro/internal/core/flowtime"
	"repro/internal/core/srpt"
	"repro/internal/core/wflow"
	"repro/internal/front"
	"repro/internal/gantt"
	"repro/internal/lowerbound"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// options holds schedsim's flags.
type options struct {
	policy                                     string
	eps, alpha, epsS                           float64
	stream, compare, gantt                     bool
	ckpt, resume, dump                         string
	ckptEvery, ckptDeltas, ckptKeep, stopAfter int
	progress                                   time.Duration
}

// exitError is a failure with its own exit status: 2 for a usage mistake, 3
// for a streaming run stopped by a signal.
type exitError struct {
	code int
	msg  string
}

func (e *exitError) Error() string { return e.msg }

func usage(format string, args ...any) error {
	return &exitError{2, fmt.Sprintf(format, args...)}
}

// run is the command: it parses args, runs the chosen mode with the given
// standard streams, and returns the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.policy, "policy", "flowtime", policy.Usage()+"|energymin|avr|greedy|fcfs|leastloaded|speedaug|immediate")
	fs.Float64Var(&o.eps, "eps", 0.2, "rejection parameter ε")
	fs.Float64Var(&o.alpha, "alpha", 0, "power exponent override (0: use trace)")
	fs.Float64Var(&o.epsS, "epsS", 0.2, "speed augmentation (speedaug)")
	fs.BoolVar(&o.stream, "stream", false, "consume an NDJSON trace incrementally (file or stdin)")
	fs.StringVar(&o.ckpt, "checkpoint", "", "stream mode: root a checkpoint lineage at this path (P.N.full, P.N.delta, P.lineage)")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 0, "stream mode: checkpoint every N fed jobs")
	fs.IntVar(&o.ckptDeltas, "checkpoint-deltas", 0, "stream mode: up to N delta checkpoints between fulls (0: fulls only)")
	fs.IntVar(&o.ckptKeep, "checkpoint-keep", 0, "stream mode: retain only the newest N full generations (0: 2)")
	fs.IntVar(&o.stopAfter, "stop-after", 0, "stream mode: stop after the trace's first N jobs, drain to the -checkpoint, exit without a report")
	fs.StringVar(&o.resume, "resume", "", "stream mode: restore from the checkpoint lineage rooted at this path and replay the trace from the top")
	fs.BoolVar(&o.compare, "compare", false, "run the policy, its preemptive counterpart and the SRPT bound on the same instance")
	fs.StringVar(&o.dump, "dump", "", "write the outcome JSON to this file")
	fs.DurationVar(&o.progress, "progress", 0, "stream mode: print a periodic status line to stderr (0 disables)")
	fs.BoolVar(&o.gantt, "gantt", false, "print an ASCII machine timeline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	err := o.run(fs.Args(), stdin, stdout, stderr)
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "schedsim:", err)
	var ee *exitError
	if errors.As(err, &ee) {
		return ee.code
	}
	return 1
}

func (o *options) run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	if o.compare {
		if o.stream || o.dump != "" || o.gantt {
			return usage("-compare runs several schedulers on the full instance and does not combine with -stream, -dump or -gantt")
		}
		if len(args) != 1 {
			return usage("usage: schedsim -compare [-policy flowtime|wflow] [flags] trace.json")
		}
		return runCompare(stdout, o.policy, o.eps, args[0])
	}
	if o.stream {
		if len(args) > 1 {
			return usage("usage: schedsim -stream [flags] [trace.ndjson|-]")
		}
		if o.gantt || o.dump != "" {
			return usage("-gantt and -dump need the full instance and do not combine with -stream")
		}
		if (o.ckptEvery > 0 || o.stopAfter > 0 || o.ckptDeltas > 0 || o.ckptKeep > 0) && o.ckpt == "" {
			return usage("-checkpoint-every/-checkpoint-deltas/-checkpoint-keep/-stop-after need -checkpoint FILE")
		}
		if _, ok := policy.Lookup(o.policy); !ok {
			return usage("policy %q does not support -stream (use %s)", o.policy, policy.Usage())
		}
		return o.runStream(args, stdin, stdout, log.New(stderr, "schedsim: ", 0))
	}
	if o.ckpt != "" || o.ckptEvery > 0 || o.ckptDeltas > 0 || o.ckptKeep > 0 || o.stopAfter > 0 || o.resume != "" {
		return usage("-checkpoint/-checkpoint-every/-stop-after/-resume only apply to -stream")
	}
	if len(args) != 1 {
		return usage("usage: schedsim [flags] trace.json")
	}
	return o.runBatch(args[0], stdout)
}

// runBatch loads the whole instance, runs the policy on it, audits the
// outcome and prints its metrics.
func (o *options) runBatch(path string, stdout io.Writer) error {
	ins, err := trace.LoadInstance(path)
	if err != nil {
		return err
	}

	var out *sched.Outcome
	mode := sched.ValidateMode{}
	if e, ok := policy.Lookup(o.policy); ok {
		out, err = e.Run(ins, policy.Params{Epsilon: o.eps, Alpha: cmp.Or(o.alpha, ins.Alpha)})
		mode = e.Mode
	} else {
		// Batch-only comparators outside the policy registry.
		switch o.policy {
		case "energymin", "avr":
			var res *energymin.Result
			if res, err = energymin.Run(ins, energymin.Options{Alpha: o.alpha, FullWindowOnly: o.policy == "avr"}); err == nil {
				out = res.Outcome
			}
			mode = sched.ValidateMode{AllowParallel: true, RequireDeadlines: true}
		case "greedy":
			out, err = baseline.GreedySPT(ins)
		case "fcfs":
			out, err = baseline.FCFS(ins)
		case "leastloaded":
			out, err = baseline.LeastLoaded(ins)
		case "speedaug":
			out, err = baseline.SpeedAugmented(ins, o.epsS, o.eps)
		case "immediate":
			out, err = baseline.ImmediateReject(ins, o.eps, 3)
		default:
			return usage("unknown policy %q", o.policy)
		}
	}
	if err != nil {
		return err
	}
	m, err := audit(ins, out, mode, "")
	if err != nil {
		return err
	}

	t := stats.NewTable(fmt.Sprintf("schedsim: %s on %s (n=%d, m=%d)", o.policy, path, len(ins.Jobs), ins.Machines),
		"metric", "value")
	t.AddRowf("total flow", m.TotalFlow)
	t.AddRowf("weighted flow", m.WeightedFlow)
	if ins.Alpha > 0 {
		t.AddRowf("energy", m.Energy)
		t.AddRowf("wflow+energy", m.WeightedFlowPlusEnergy())
	}
	t.AddRowf("mean flow", m.MeanFlow)
	t.AddRowf("p99 flow", m.P99Flow)
	t.AddRowf("max flow", m.MaxFlow)
	t.AddRowf("completed", m.Completed)
	t.AddRowf("rejected", m.Rejected)
	t.AddRowf("rejected weight", m.RejectedWeight)
	t.AddRowf("makespan", m.Makespan)
	t.AddRowf("LB Σ min p", lowerbound.MinProcSum(ins))
	t.AddRowf("LB pooled SRPT", lowerbound.SRPTBound(ins))
	fmt.Fprintln(stdout, t)

	if o.gantt {
		fmt.Fprint(stdout, gantt.Render(ins, out, 100, 0))
	}

	if o.dump != "" {
		f, err := os.Create(o.dump)
		if err != nil {
			return err
		}
		defer f.Close()
		return trace.WriteOutcome(f, out)
	}
	return nil
}

// frontConfig maps the flags and the trace header onto the one-tenant,
// one-shard front door that -stream drives.
func (o *options) frontConfig(h *front.Feed) front.Config {
	cfg := front.Config{
		Policy:           o.policy,
		Epsilon:          o.eps,
		Alpha:            cmp.Or(o.alpha, h.Alpha()), // a stream has no instance to fall back on, only its header
		Machines:         h.Machines(),
		SizeHint:         h.Jobs(),
		CheckpointPath:   o.ckpt,
		CheckpointEvery:  o.ckptEvery,
		CheckpointDeltas: o.ckptDeltas,
		CheckpointKeep:   o.ckptKeep,
		AckTimeout:       time.Hour, // the acks are read in process: a stall is the host's, never a slow client's
	}
	if o.progress > 0 {
		cfg.Obs = obs.NewRegistry()
	}
	return cfg
}

// runStream feeds the NDJSON trace named by args (stdin when none or "-") to
// an in-process front door as tenant 0, then drains it and prints the report
// — or, at -stop-after or on a signal, drains it to its checkpoint and prints
// none.
func (o *options) runStream(args []string, stdin io.Reader, stdout io.Writer, lg *log.Logger) error {
	in := stdin
	if len(args) == 1 && args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	feed, err := front.NewFeed(in)
	if err != nil {
		return err
	}
	srv, err := front.Open(o.frontConfig(feed), o.resume, lg)
	if err != nil {
		return err
	}
	restored := srv.Stats().Fed
	if o.progress > 0 {
		defer srv.Progress(lg, o.progress)()
	}
	st, err := srv.OpenStream(0)
	if err != nil {
		return err
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigC)
	var parsed int
	parseDone, acked := make(chan error, 1), make(chan struct{})
	go func() {
		n, err := feed.Into(st, o.stopAfter)
		parsed = n
		parseDone <- err
	}()
	go func() {
		for range st.Acks() {
		}
		close(acked)
	}()
	select {
	case sig := <-sigC: // Drain ends the stream; the parser may stay blocked on stdin until exit
		if _, err := srv.Drain(); err != nil {
			return err
		}
		return &exitError{3, fmt.Sprintf("%v after %d jobs absorbed (-checkpoint %q)", sig, srv.Stats().Fed, o.ckpt)}
	case <-acked:
	}
	if err := errors.Join(<-parseDone, st.Err()); err != nil {
		return err
	}

	// A faithful replay acks every restored job as a duplicate and releases
	// nothing before them.
	stopped := o.stopAfter > 0 && parsed == o.stopAfter
	if s := srv.Stats(); s.Restamped != 0 || (!stopped && s.Dup != restored) {
		return fmt.Errorf("the trace replays %d of the snapshot's %d jobs and releases %d new ones before them — resuming against a different trace?", s.Dup, restored, s.Restamped)
	}
	rep, err := srv.Drain()
	if err != nil {
		return err
	}
	if stopped {
		lg.Printf("stopped after %d jobs (%d absorbed in total), checkpoint at %s", parsed, srv.Stats().Fed, o.ckpt)
		return nil
	}
	return rep.WriteIndented(stdout)
}

// runCompare runs a non-preemptive policy, its preemptive engine-hosted
// counterpart and the pooled preemptive SRPT lower bound on the same
// instance: flowtime pairs with per-machine SRPT on total flow time, wflow
// with migratory weighted SRPT on weighted flow time. Every outcome is
// audited before its metrics count.
//
// Two headline ratios come out. The clean "price of non-preemption" divides
// non-preemptive greedy SPT (which, like the preemptive comparator, serves
// every job) by the preemptive cost — what the ability to preempt alone
// buys. The "rejection vs preemption" ratio divides the paper algorithm's
// cost by the preemptive cost; since its rejected jobs pay flow only until
// their rejection instant (the paper's accounting), this ratio can dip
// below 1 under overload — rejection substituting for preemption, the §1
// claim E15 quantifies across workload families.
func runCompare(stdout io.Writer, polName string, eps float64, path string) error {
	ins, err := trace.LoadInstance(path)
	if err != nil {
		return err
	}

	var (
		nonName, preName string
		nonOut, preOut   *sched.Outcome
		preMode          sched.ValidateMode
		rejected         int
		preempt, migrate int
		objective        string
		costOf           func(sched.Metrics) float64
	)
	switch polName {
	case "flowtime":
		nonName, preName, objective = "flowtime (non-preemptive)", "srpt (preemptive)", "total flow"
		costOf = func(m sched.Metrics) float64 { return m.TotalFlow }
		nres, err := flowtime.Run(ins, flowtime.Options{Epsilon: eps})
		if err != nil {
			return err
		}
		pres, err := srpt.Run(ins, srpt.Options{})
		if err != nil {
			return err
		}
		nonOut, preOut = nres.Outcome, pres.Outcome
		rejected, preempt = nres.Rule1Rejections+nres.Rule2Rejections, pres.Preemptions
		preMode = sched.ValidateMode{AllowPreemption: true, RequireUnitSpeed: true}
	case "wflow":
		nonName, preName, objective = "wflow (non-preemptive)", "wsrpt (preemptive, migratory)", "weighted flow"
		costOf = func(m sched.Metrics) float64 { return m.WeightedFlow }
		nres, err := wflow.Run(ins, wflow.Options{Epsilon: eps})
		if err != nil {
			return err
		}
		pres, err := srpt.RunWeighted(ins, srpt.WeightedOptions{})
		if err != nil {
			return err
		}
		nonOut, preOut = nres.Outcome, pres.Outcome
		rejected, preempt, migrate = nres.Rule1Rejections+nres.Rule2Rejections, pres.Preemptions, pres.Migrations
		preMode = sched.ValidateMode{AllowMigration: true, RequireUnitSpeed: true}
	default:
		return usage("-compare pairs flowtime or wflow with a preemptive counterpart, not %q", polName)
	}

	greedyOut, err := baseline.GreedySPT(ins)
	if err != nil {
		return err
	}
	unit := sched.ValidateMode{RequireUnitSpeed: true}
	nm, err := audit(ins, nonOut, unit, "non-preemptive ")
	if err != nil {
		return err
	}
	pm, err := audit(ins, preOut, preMode, "preemptive ")
	if err != nil {
		return err
	}
	gm, err := audit(ins, greedyOut, unit, "greedy ")
	if err != nil {
		return err
	}
	nonCost, preCost, greedyCost := costOf(nm), costOf(pm), costOf(gm)
	bound := lowerbound.SRPTBound(ins)

	t := stats.NewTable(fmt.Sprintf("schedsim -compare: %s on %s (n=%d, m=%d, ε=%v)", polName, path, len(ins.Jobs), ins.Machines, eps),
		"metric", "value")
	t.AddRowf(fmt.Sprintf("%s %s", nonName, objective), nonCost)
	t.AddRowf(fmt.Sprintf("greedy SPT (non-preemptive, no rejections) %s", objective), greedyCost)
	t.AddRowf(fmt.Sprintf("%s %s", preName, objective), preCost)
	t.AddRowf("LB pooled SRPT (total flow)", bound)
	if preCost > 0 {
		t.AddRowf("price of non-preemption (greedy/preemptive)", greedyCost/preCost)
		t.AddRowf("rejection vs preemption (policy/preemptive)", nonCost/preCost)
	}
	// The pooled SRPT bound holds for total flow only, so the LB ratios are
	// always on total flow — even when the headline objective is weighted.
	if bound > 0 {
		t.AddRowf(fmt.Sprintf("%s total flow / LB", preName), pm.TotalFlow/bound)
		t.AddRowf(fmt.Sprintf("%s total flow / LB", nonName), nm.TotalFlow/bound)
	}
	t.AddRowf("rejected (non-preemptive)", rejected)
	t.AddRowf("preemptions", preempt)
	if polName == "wflow" {
		t.AddRowf("migrations", migrate)
	}
	fmt.Fprintln(stdout, t)
	return nil
}

// audit validates an outcome against its instance under mode and computes
// its metrics; what names the outcome in the error.
func audit(ins *sched.Instance, out *sched.Outcome, mode sched.ValidateMode, what string) (sched.Metrics, error) {
	if err := sched.ValidateOutcome(ins, out, mode); err != nil {
		return sched.Metrics{}, fmt.Errorf("%soutcome failed audit: %w", what, err)
	}
	return sched.ComputeMetrics(ins, out)
}
