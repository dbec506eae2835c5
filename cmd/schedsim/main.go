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
// With -stream the trace is NDJSON (produced by tracegen -ndjson) and is
// consumed incrementally — from a file or stdin ("-" or no argument) —
// feeding jobs into a streaming scheduler session at read time, never
// materializing the instance. Ingestion is batched: slabs of -batch jobs
// (default 256) are decoded and moved through one FeedBatch call each, which
// is observably identical at every slab size; -batch 1 hands each job over
// as it is read (checkpoints, -stop-after and signals act at slab
// boundaries, so a slow pipe wants a small slab). Only the session-backed
// policies (flowtime, wflow, speedscale, srpt, wsrpt) support this mode:
//
//	tracegen -ndjson -n 100000 | schedsim -stream -policy flowtime -eps 0.2
//	tracegen -ndjson -n 100000 | schedsim -stream -batch 1024 -policy srpt
//
// Streaming sessions checkpoint and resume (see internal/snapshot and
// DESIGN.md): -checkpoint P roots a checkpoint lineage at P (members
// P.N.full / P.N.delta plus the manifest P.lineage) and -checkpoint-every N
// appends a durable checkpoint of the live session every N fed jobs (at
// slab boundaries) — fulls only unless -checkpoint-deltas allows deltas
// between them, the newest -checkpoint-keep full generations retained;
// SIGINT or SIGTERM mid-stream also writes a final checkpoint before
// exiting nonzero (status 3), so an orchestrator's shutdown is a resumable
// event rather than lost work; -stop-after N stops feeding after about N
// jobs, writes a final checkpoint and exits without a report, modeling a
// killed process; -resume P recovers the newest intact checkpoint of the
// lineage at P and replays the trace, skipping the jobs the checkpoint
// already absorbed — the final report is bit-identical to an uninterrupted
// run over the same trace:
//
//	schedsim -stream -policy flowtime -eps 0.2 -checkpoint ck -checkpoint-every 50000 big.ndjson
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
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/baseline"
	"repro/internal/core/energymin"
	"repro/internal/core/flowtime"
	"repro/internal/core/srpt"
	"repro/internal/core/wflow"
	"repro/internal/engine"
	"repro/internal/gantt"
	"repro/internal/lowerbound"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		polName  = flag.String("policy", "flowtime", policy.Usage()+"|energymin|avr|greedy|fcfs|leastloaded|speedaug|immediate")
		eps      = flag.Float64("eps", 0.2, "rejection parameter ε")
		alpha    = flag.Float64("alpha", 0, "power exponent override (0: use trace)")
		epsS     = flag.Float64("epsS", 0.2, "speed augmentation (speedaug)")
		stream   = flag.Bool("stream", false, "consume an NDJSON trace incrementally (file or stdin)")
		batch    = flag.Int("batch", 256, "stream mode: jobs per ingestion slab")
		ckpt     = flag.String("checkpoint", "", "stream mode: root a checkpoint lineage at this path (P.N.full, P.N.delta, P.lineage)")
		ckptN    = flag.Int("checkpoint-every", 0, "stream mode: checkpoint every N fed jobs")
		ckptD    = flag.Int("checkpoint-deltas", 0, "stream mode: up to N delta checkpoints between fulls (0: fulls only)")
		ckptK    = flag.Int("checkpoint-keep", 0, "stream mode: retain only the newest N full generations (0: 2)")
		stopN    = flag.Int("stop-after", 0, "stream mode: stop after about N jobs, write a final -checkpoint, exit without a report")
		resume   = flag.String("resume", "", "stream mode: restore the session from the checkpoint lineage rooted at this path and skip the jobs it already absorbed")
		compare  = flag.Bool("compare", false, "run the policy, its preemptive counterpart and the SRPT bound on the same instance")
		dump     = flag.String("dump", "", "write the outcome JSON to this file")
		progress = flag.Duration("progress", 0, "stream mode: print a periodic status line (jobs fed, pending, events/s, checkpoint seq) to stderr (0 disables)")
		showG    = flag.Bool("gantt", false, "print an ASCII machine timeline")
	)
	flag.Parse()
	if *compare {
		if *stream {
			fmt.Fprintln(os.Stderr, "schedsim: -compare needs the full instance and does not combine with -stream")
			os.Exit(2)
		}
		if *dump != "" || *showG {
			fmt.Fprintln(os.Stderr, "schedsim: -compare runs several schedulers and does not combine with -dump or -gantt")
			os.Exit(2)
		}
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: schedsim -compare [-policy flowtime|wflow] [flags] trace.json")
			os.Exit(2)
		}
		runCompare(*polName, *eps, flag.Arg(0))
		return
	}
	if *stream {
		if flag.NArg() > 1 {
			fmt.Fprintln(os.Stderr, "usage: schedsim -stream [flags] [trace.ndjson|-]")
			os.Exit(2)
		}
		if *showG {
			fmt.Fprintln(os.Stderr, "schedsim: -gantt needs the full instance and does not combine with -stream")
			os.Exit(2)
		}
		if (*ckptN > 0 || *stopN > 0 || *ckptD > 0 || *ckptK > 0) && *ckpt == "" {
			fmt.Fprintln(os.Stderr, "schedsim: -checkpoint-every/-checkpoint-deltas/-checkpoint-keep/-stop-after need -checkpoint FILE")
			os.Exit(2)
		}
		runStream(*polName, *eps, *alpha, *batch, flag.Arg(0), *dump, *progress,
			streamCheckpoints{File: *ckpt, Every: *ckptN, Deltas: *ckptD, Keep: *ckptK, StopAfter: *stopN, Resume: *resume})
		return
	}
	if *ckpt != "" || *ckptN > 0 || *ckptD > 0 || *ckptK > 0 || *stopN > 0 || *resume != "" {
		fmt.Fprintln(os.Stderr, "schedsim: -checkpoint/-checkpoint-every/-stop-after/-resume only apply to -stream")
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: schedsim [flags] trace.json")
		os.Exit(2)
	}
	ins, err := trace.LoadInstance(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	var out *sched.Outcome
	mode := sched.ValidateMode{}
	if e, ok := policy.Lookup(*polName); ok {
		a := *alpha
		if a == 0 {
			a = ins.Alpha
		}
		out, err = e.Run(ins, policy.Params{Epsilon: *eps, Alpha: a})
		mode = e.Mode
	} else {
		// Batch-only comparators that are not hosted on the engine.
		switch *polName {
		case "energymin", "avr":
			res, err := energymin.Run(ins, energymin.Options{Alpha: *alpha, FullWindowOnly: *polName == "avr"})
			if err != nil {
				fatal(err)
			}
			out = res.Outcome
			mode.AllowParallel = true
			mode.RequireDeadlines = true
		case "greedy":
			out, err = baseline.GreedySPT(ins)
		case "fcfs":
			out, err = baseline.FCFS(ins)
		case "leastloaded":
			out, err = baseline.LeastLoaded(ins)
		case "speedaug":
			out, err = baseline.SpeedAugmented(ins, *epsS, *eps)
		case "immediate":
			out, err = baseline.ImmediateReject(ins, *eps, 3)
		default:
			fmt.Fprintf(os.Stderr, "schedsim: unknown policy %q\n", *polName)
			os.Exit(2)
		}
	}
	if err != nil {
		fatal(err)
	}
	if err := sched.ValidateOutcome(ins, out, mode); err != nil {
		fatal(fmt.Errorf("outcome failed audit: %w", err))
	}
	m, err := sched.ComputeMetrics(ins, out)
	if err != nil {
		fatal(err)
	}

	t := stats.NewTable(fmt.Sprintf("schedsim: %s on %s (n=%d, m=%d)", *polName, flag.Arg(0), len(ins.Jobs), ins.Machines),
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
	fmt.Println(t)

	if *showG {
		fmt.Print(gantt.Render(ins, out, 100, 0))
	}

	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := trace.WriteOutcome(f, out); err != nil {
			fatal(err)
		}
	}
}

// jobFact is the per-job footprint kept for metrics in stream mode: the
// scheduler itself never sees an instance, only the fed jobs.
type jobFact struct {
	id      int
	release float64
	weight  float64
}

// streamCheckpoints carries the checkpoint/resume configuration of a
// streaming run.
type streamCheckpoints struct {
	File      string // lineage base path ("" disables checkpointing)
	Every     int    // checkpoint every this many fed jobs (0: only on StopAfter or a signal)
	Deltas    int    // up to this many delta checkpoints between fulls (0: fulls only)
	Keep      int    // retain only the newest N full generations (0: 2)
	StopAfter int    // stop feeding after about N jobs (0: run to EOF)
	Resume    string // lineage to restore the session from ("" starts fresh)
}

// runStream consumes an NDJSON trace incrementally and feeds a streaming
// scheduler session in slabs of `batch` jobs, then reports flow metrics
// computed from the outcome and the O(1)-per-job facts logged at feed time.
// A non-empty dump path receives the outcome JSON, as in batch mode.
//
// With ck.Resume the session is reconstructed from the lineage's newest
// intact checkpoint and the trace replays from the top, logging facts but
// skipping the session.Fed() jobs the checkpoint already absorbed; with
// ck.File the live session is appended to the lineage every ck.Every fed
// jobs (and before a ck.StopAfter exit).
//
// streamProgress prints one status line per tick to stderr — plus a
// final one on stop, so even a run shorter than the interval leaves a
// trace — reading only the obs registry (atomics), never the session.
// events/s is the delta of engine_events_total over the window, and
// pending is derived (fed − completed − rejected), clamped at zero
// against the unsynchronized reads racing the feeder.
func streamProgress(reg *obs.Registry, every time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	var (
		fed       = reg.Counter("engine_jobs_fed_total")
		completed = reg.Counter("engine_jobs_completed_total")
		rejected  = reg.Counter("engine_jobs_rejected_total")
		events    = reg.Counter("engine_events_total")
		seq       = reg.Gauge("schedsim_checkpoint_seq")
	)
	lastEvents := int64(0)
	last := time.Now()
	emit := func(now time.Time) {
		f := fed.Value()
		pending := f - completed.Value() - rejected.Value()
		if pending < 0 {
			pending = 0
		}
		ev := events.Value()
		rate := float64(ev-lastEvents) / now.Sub(last).Seconds()
		if rate < 0 || now.Sub(last) <= 0 {
			rate = 0
		}
		lastEvents, last = ev, now
		fmt.Fprintf(os.Stderr, "schedsim: progress fed=%d pending=%d events/s=%.0f ckpt_seq=%d\n",
			f, pending, rate, int64(seq.Value()))
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			emit(time.Now())
			return
		case now := <-t.C:
			emit(now)
		}
	}
}

func runStream(polName string, eps, alpha float64, batch int, path, dump string, progress time.Duration, ck streamCheckpoints) {
	in := io.Reader(os.Stdin)
	name := "stdin"
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
		name = path
	}
	r, err := trace.NewNDJSONReader(in)
	if err != nil {
		fatal(err)
	}

	var resumeFrom io.Reader
	if ck.Resume != "" {
		payload, info, err := snapshot.RecoverLineage(ck.Resume)
		if err != nil {
			fatal(err)
		}
		if info.FellBack {
			fmt.Fprintf(os.Stderr, "schedsim: lineage fell back to seq %d (%d newer checkpoints dropped as corrupt)\n",
				info.Seq, info.Dropped)
		}
		resumeFrom = snapshot.InPlace(payload)
	}

	e, ok := policy.Lookup(polName)
	if !ok {
		fmt.Fprintf(os.Stderr, "schedsim: policy %q does not support -stream (use %s)\n", polName, policy.Usage())
		os.Exit(2)
	}
	if alpha == 0 {
		alpha = r.Alpha() // a stream has no instance to fall back on, only its header
	}
	params := policy.Params{Epsilon: eps, Alpha: alpha, SizeHint: r.Jobs()}
	var fd policy.Session
	if resumeFrom != nil {
		fd, err = e.Restore(resumeFrom, params)
	} else {
		fd, err = e.New(r.Machines(), params)
	}
	if err != nil {
		fatal(err)
	}

	// -progress wires the session to a private obs registry and prints a
	// periodic status line from its counters. The ticker goroutine never
	// touches the session itself (sessions are not goroutine-safe):
	// pending is derived as fed − completed − rejected, and the
	// checkpoint sequence comes from a gauge set by save() below.
	var ckptSeq *obs.Gauge
	if progress > 0 {
		reg := obs.NewRegistry()
		fd.SetTelemetry(engine.NewTelemetry(reg, ""))
		ckptSeq = reg.Gauge("schedsim_checkpoint_seq")
		stopProgress := make(chan struct{})
		progressDone := make(chan struct{})
		go streamProgress(reg, progress, stopProgress, progressDone)
		defer func() {
			close(stopProgress)
			<-progressDone // the final status line must land before exit
		}()
	}

	// save appends a checkpoint of the session to the lineage. force pins a
	// full — the final checkpoint of an interrupted or stopped run is a
	// recovery anchor, never a delta.
	var lin *snapshot.Lineage
	if ck.File != "" {
		keep := ck.Keep
		if keep <= 0 {
			keep = 2 // as front.Config.CheckpointKeep: the fewest that survive a corrupt full
		}
		lin, err = snapshot.OpenLineage(ck.File, snapshot.LineageOptions{Keep: keep, DeltaEvery: ck.Deltas})
		if err != nil {
			fatal(err)
		}
	}
	var ckptBuf []byte // capture buffer, reused by every checkpoint
	save := func(force bool) error {
		var err error
		if ckptBuf, err = fd.AppendSnapshot(ckptBuf[:0]); err != nil {
			return fmt.Errorf("writing checkpoint: %w", err)
		}
		entry, err := lin.Write(ckptBuf, force)
		if err != nil {
			return err
		}
		ckptSeq.Set(float64(entry.Seq))
		return nil
	}

	var facts []jobFact
	skip := fd.Fed() // jobs the restored snapshot already absorbed
	fedHere := 0     // jobs fed by this process
	sinceCkpt := 0
	stopped := false

	// SIGINT/SIGTERM land between slabs: the current slab finishes feeding,
	// a final checkpoint (if -checkpoint is set) freezes the session, and the
	// process exits nonzero — the report is the survivor's job, via -resume.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigC)
	interrupted := func() bool {
		select {
		case sig := <-sigC:
			if ck.File != "" {
				if err := save(true); err != nil {
					fatal(fmt.Errorf("checkpoint on %v: %w", sig, err))
				}
				fmt.Fprintf(os.Stderr, "schedsim: %v after %d jobs (%d absorbed in total), checkpoint at %s\n",
					sig, fedHere, fd.Fed(), ck.File)
			} else {
				fmt.Fprintf(os.Stderr, "schedsim: %v after %d jobs, no -checkpoint to save to\n", sig, fedHere)
			}
			os.Exit(3)
			return true
		default:
			return false
		}
	}

	// ingest logs facts for every trace job, skips the prefix a resumed
	// session already holds, feeds the rest, and handles the periodic
	// checkpoint and the stop-after cutoff at slab granularity.
	ingest := func(slab []sched.Job) {
		for k := range slab {
			facts = append(facts, jobFact{id: slab[k].ID, release: slab[k].Release, weight: slab[k].Weight})
		}
		if skip >= len(slab) {
			skip -= len(slab)
			return
		}
		slab = slab[skip:]
		skip = 0
		if err := fd.FeedBatch(slab); err != nil {
			fatal(err)
		}
		fedHere += len(slab)
		sinceCkpt += len(slab)
		if ck.File != "" && ck.Every > 0 && sinceCkpt >= ck.Every {
			if err := save(false); err != nil {
				fatal(err)
			}
			sinceCkpt = 0
		}
		if ck.StopAfter > 0 && fedHere >= ck.StopAfter {
			if ck.File != "" {
				if err := save(true); err != nil {
					fatal(err)
				}
			}
			fmt.Fprintf(os.Stderr, "schedsim: stopped after %d jobs (%d absorbed in total), checkpoint at %s\n",
				fedHere, fd.Fed(), ck.File)
			stopped = true
		}
	}

	// Decode a slab, feed it in one FeedBatch call, reuse the slab. FeedBatch
	// copies the jobs, so recycling the buffer is safe; each job's Proc slice
	// is freshly decoded and stays owned by the session.
	batch = max(batch, 1)
	slab := make([]sched.Job, 0, batch)
	for !stopped && !interrupted() {
		slab, err = r.NextBatch(slab[:0], batch)
		if err != nil && err != io.EOF {
			fatal(err)
		}
		ingest(slab)
		if err == io.EOF {
			break
		}
	}
	if stopped {
		return // the checkpoint is the product; no report for a killed run
	}
	if skip > 0 {
		fatal(fmt.Errorf("snapshot absorbed %d more jobs than the trace provides — resuming against a different trace?", skip))
	}
	out, err := fd.Close()
	if err != nil {
		fatal(err)
	}

	var (
		totalFlow, weightedFlow, maxFlow float64
		rejectedWeight, makespan         float64
	)
	for _, f := range facts {
		c, ok := out.Completed[f.id]
		if !ok {
			c = out.Rejected[f.id]
			rejectedWeight += f.weight
		}
		fl := c - f.release
		totalFlow += fl
		weightedFlow += f.weight * fl
		if fl > maxFlow {
			maxFlow = fl
		}
	}
	for _, iv := range out.Intervals {
		if iv.End > makespan {
			makespan = iv.End
		}
	}

	t := stats.NewTable(fmt.Sprintf("schedsim: %s streaming %s (n=%d, m=%d)", polName, name, len(facts), r.Machines()),
		"metric", "value")
	t.AddRowf("total flow", totalFlow)
	t.AddRowf("weighted flow", weightedFlow)
	if len(facts) > 0 {
		t.AddRowf("mean flow", totalFlow/float64(len(facts)))
	}
	t.AddRowf("max flow", maxFlow)
	t.AddRowf("completed", len(out.Completed))
	t.AddRowf("rejected", len(out.Rejected))
	t.AddRowf("rejected weight", rejectedWeight)
	t.AddRowf("makespan", makespan)
	fmt.Println(t)

	if dump != "" {
		f, err := os.Create(dump)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := trace.WriteOutcome(f, out); err != nil {
			fatal(err)
		}
	}
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
func runCompare(polName string, eps float64, path string) {
	ins, err := trace.LoadInstance(path)
	if err != nil {
		fatal(err)
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
			fatal(err)
		}
		pres, err := srpt.Run(ins, srpt.Options{})
		if err != nil {
			fatal(err)
		}
		nonOut, preOut = nres.Outcome, pres.Outcome
		rejected, preempt = nres.Rule1Rejections+nres.Rule2Rejections, pres.Preemptions
		preMode = sched.ValidateMode{AllowPreemption: true, RequireUnitSpeed: true}
	case "wflow":
		nonName, preName, objective = "wflow (non-preemptive)", "wsrpt (preemptive, migratory)", "weighted flow"
		costOf = func(m sched.Metrics) float64 { return m.WeightedFlow }
		nres, err := wflow.Run(ins, wflow.Options{Epsilon: eps})
		if err != nil {
			fatal(err)
		}
		pres, err := srpt.RunWeighted(ins, srpt.WeightedOptions{})
		if err != nil {
			fatal(err)
		}
		nonOut, preOut = nres.Outcome, pres.Outcome
		rejected, preempt, migrate = nres.Rule1Rejections+nres.Rule2Rejections, pres.Preemptions, pres.Migrations
		preMode = sched.ValidateMode{AllowMigration: true, RequireUnitSpeed: true}
	default:
		fmt.Fprintf(os.Stderr, "schedsim: -compare pairs flowtime or wflow with a preemptive counterpart, not %q\n", polName)
		os.Exit(2)
	}

	greedyOut, err := baseline.GreedySPT(ins)
	if err != nil {
		fatal(err)
	}
	if err := sched.ValidateOutcome(ins, nonOut, sched.ValidateMode{RequireUnitSpeed: true}); err != nil {
		fatal(fmt.Errorf("non-preemptive outcome failed audit: %w", err))
	}
	if err := sched.ValidateOutcome(ins, preOut, preMode); err != nil {
		fatal(fmt.Errorf("preemptive outcome failed audit: %w", err))
	}
	if err := sched.ValidateOutcome(ins, greedyOut, sched.ValidateMode{RequireUnitSpeed: true}); err != nil {
		fatal(fmt.Errorf("greedy outcome failed audit: %w", err))
	}
	nm, err := sched.ComputeMetrics(ins, nonOut)
	if err != nil {
		fatal(err)
	}
	pm, err := sched.ComputeMetrics(ins, preOut)
	if err != nil {
		fatal(err)
	}
	gm, err := sched.ComputeMetrics(ins, greedyOut)
	if err != nil {
		fatal(err)
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
	fmt.Println(t)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "schedsim:", err)
	os.Exit(1)
}
