// Command schedsim runs one scheduling policy on an NDJSON trace (produced by
// cmd/tracegen, see internal/trace) and reports the audited metrics. Every
// mode reads its trace from the one path argument, or from stdin when it is
// "-" or absent.
//
// Usage:
//
//	schedsim -policy flowtime -eps 0.2 trace.ndjson
//	schedsim -policy wflow -eps 0.2 trace.ndjson
//	schedsim -policy speedscale -eps 0.3 -alpha 2 trace.ndjson
//	schedsim -policy srpt trace.ndjson
//	schedsim -policy energymin deadline.ndjson
//	schedsim -policy greedy trace.ndjson
//	schedsim -policy flowtime -eps 0.2 -dump out.json trace.ndjson
//	tracegen -n 2000 | schedsim -policy flowtime -eps 0.2 -
//
// With -stream the trace is read incrementally into an in-process front door
// (internal/front) with one tenant and one shard — schedserve's feed loop,
// sequencer, checkpoints and report, never materializing the instance. At the
// end of the trace the server drains and its report is printed as indented
// JSON, byte for byte what schedserve prints for the same jobs. Only the
// policies registered in internal/policy stream; -gantt and -dump do not.
//
// -checkpoint P roots a checkpoint lineage at P (members P.N.full and
// P.N.delta, beside P; see DESIGN.md), written every -checkpoint-every fed
// jobs and by the drain. -stop-after N stops after the trace's first N jobs,
// drains to the checkpoint and exits 0 without a report, modeling a killed
// process; SIGINT or SIGTERM drains the same way and exits 3. -resume P
// restores the lineage's newest intact checkpoint and replays the trace from
// the top: its jobs ack as duplicates, and the report equals an uninterrupted
// run's. A replay that misses checkpointed jobs or releases new ones before
// them is a different trace and fails.
//
//	tracegen -n 100000 | schedsim -stream -policy flowtime -eps 0.2
//	schedsim -stream -policy flowtime -eps 0.2 -checkpoint ck -stop-after 300000 big.ndjson
//	schedsim -stream -policy flowtime -eps 0.2 -resume ck big.ndjson
//
// With -compare the chosen non-preemptive policy (flowtime or wflow), its
// preemptive engine-hosted counterpart (srpt or migratory wsrpt), greedy SPT
// and the pooled preemptive SRPT lower bound all run on the same instance
// (bench.Compare, the code of experiment E15), and the report adds the
// empirical "price of non-preemption" on the matching objective:
//
//	schedsim -compare -policy flowtime -eps 0.2 trace.ndjson
//	schedsim -compare -policy wflow -eps 0.2 trace.ndjson
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
	"repro/internal/bench"
	"repro/internal/core/energymin"
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
	fs.BoolVar(&o.stream, "stream", false, "consume the trace incrementally")
	fs.StringVar(&o.ckpt, "checkpoint", "", "stream mode: root a checkpoint lineage at this path (P.N.full, P.N.delta)")
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
	streamOnly := o.ckpt != "" || o.ckptEvery > 0 || o.ckptDeltas > 0 || o.ckptKeep > 0 || o.stopAfter > 0 || o.resume != ""
	_, registered := policy.Lookup(o.policy)
	switch {
	case len(args) > 1:
		return usage("usage: schedsim [flags] [trace.ndjson|-]")
	case o.compare && (o.stream || o.dump != "" || o.gantt):
		return usage("-compare runs several schedulers on the full instance and does not combine with -stream, -dump or -gantt")
	case o.compare && o.policy != "flowtime" && o.policy != "wflow":
		return usage("-compare pairs flowtime or wflow with a preemptive counterpart, not %q", o.policy)
	case o.stream && (o.gantt || o.dump != ""):
		return usage("-gantt and -dump need the full instance and do not combine with -stream")
	case o.stream && o.ckpt == "" && (o.ckptEvery > 0 || o.stopAfter > 0 || o.ckptDeltas > 0 || o.ckptKeep > 0):
		return usage("-checkpoint-every/-checkpoint-deltas/-checkpoint-keep/-stop-after need -checkpoint FILE")
	case o.stream && !registered:
		return usage("policy %q does not support -stream (use %s)", o.policy, policy.Usage())
	case !o.stream && streamOnly:
		return usage("-checkpoint/-checkpoint-every/-stop-after/-resume only apply to -stream")
	}

	in, name := stdin, "stdin"
	if len(args) == 1 && args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in, name = f, args[0]
	}
	if o.stream {
		return o.runStream(in, stdout, log.New(stderr, "schedsim: ", 0))
	}
	ins, err := trace.ReadInstance(in)
	if err != nil {
		return err
	}
	if o.compare {
		return o.runCompare(ins, name, stdout)
	}
	return o.runBatch(ins, name, stdout)
}

// runBatch runs the policy on the instance read from name, audits the
// outcome and prints its metrics.
func (o *options) runBatch(ins *sched.Instance, name string, stdout io.Writer) error {
	var out *sched.Outcome
	var mode sched.ValidateMode
	var err error
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
	if err := sched.ValidateOutcome(ins, out, mode); err != nil {
		return fmt.Errorf("outcome failed audit: %w", err)
	}
	m, err := sched.ComputeMetrics(ins, out)
	if err != nil {
		return err
	}

	t := stats.NewTable(fmt.Sprintf("schedsim: %s on %s (n=%d, m=%d)", o.policy, name, len(ins.Jobs), ins.Machines),
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

	if o.dump == "" {
		return nil
	}
	f, err := os.Create(o.dump)
	if err != nil {
		return err
	}
	return errors.Join(trace.WriteOutcome(f, out), f.Close())
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

// runStream feeds the trace in to an in-process front door as tenant 0, then
// drains it and prints the report — or, at -stop-after or on a signal,
// drains it to its checkpoint and prints none.
func (o *options) runStream(in io.Reader, stdout io.Writer, lg *log.Logger) error {
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

// runCompare prints bench.Compare's measurement of the policy on the
// instance read from name; a failed audit fails the run.
func (o *options) runCompare(ins *sched.Instance, name string, stdout io.Writer) error {
	c, err := bench.Compare(ins, o.policy, o.eps)
	if err != nil {
		return err
	}
	if c.Audit != nil {
		return c.Audit
	}
	nonName, preName, objective := "flowtime (non-preemptive)", "srpt (preemptive)", "total flow"
	cost := func(m sched.Metrics) float64 { return m.TotalFlow }
	if o.policy == "wflow" {
		nonName, preName, objective = "wflow (non-preemptive)", "wsrpt (preemptive, migratory)", "weighted flow"
		cost = func(m sched.Metrics) float64 { return m.WeightedFlow }
	}
	nonCost, preCost, greedyCost := cost(c.Policy), cost(c.Preemptive), cost(c.Greedy)

	t := stats.NewTable(fmt.Sprintf("schedsim -compare: %s on %s (n=%d, m=%d, ε=%v)", o.policy, name, len(ins.Jobs), ins.Machines, o.eps),
		"metric", "value")
	t.AddRowf(fmt.Sprintf("%s %s", nonName, objective), nonCost)
	t.AddRowf(fmt.Sprintf("greedy SPT (non-preemptive, no rejections) %s", objective), greedyCost)
	t.AddRowf(fmt.Sprintf("%s %s", preName, objective), preCost)
	t.AddRowf("LB pooled SRPT (total flow)", c.Bound)
	if preCost > 0 {
		t.AddRowf("price of non-preemption (greedy/preemptive)", greedyCost/preCost)
		t.AddRowf("rejection vs preemption (policy/preemptive)", nonCost/preCost)
	}
	// The pooled SRPT bound holds for total flow only, so the LB ratios are
	// always on total flow — even when the headline objective is weighted.
	if c.Bound > 0 {
		t.AddRowf(fmt.Sprintf("%s total flow / LB", preName), c.Preemptive.TotalFlow/c.Bound)
		t.AddRowf(fmt.Sprintf("%s total flow / LB", nonName), c.Policy.TotalFlow/c.Bound)
	}
	t.AddRowf("rejected (non-preemptive)", c.Policy.Rejected)
	t.AddRowf("preemptions", c.Preemptions)
	if o.policy == "wflow" {
		t.AddRowf("migrations", c.Migrations)
	}
	fmt.Fprintln(stdout, t)
	return nil
}
