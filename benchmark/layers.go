package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/core/flowtime"
	"repro/internal/core/speedscale"
	"repro/internal/dispatch"
	"repro/internal/engine"
	"repro/internal/eventq"
	"repro/internal/front"
	"repro/internal/lowerbound"
	"repro/internal/obs"
	"repro/internal/ostree"
	"repro/internal/sched"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// The traced run. Every layer is measured from outside, by timing calls
// into its public functions on the workload's own generated inputs (or by
// reading telemetry the server already exports); a span is recorded at each
// boundary crossed. The same jobs go through four successively deeper entry
// points — wire → in-process front → engine.Shard → one session per shard —
// and each level's CPU per job minus the next level's is that layer's self
// cost, so the budget shares sum to one by construction and the part no
// public seam reaches (HTTP framing, ack encode, socket I/O) is printed as
// the residual instead of hidden.

// layerSet collects the traced run's metric values.
type layerSet map[string]float64

// perJob divides a duration by a job count, in nanoseconds.
func perJob(d time.Duration, jobs int) float64 {
	return float64(d.Nanoseconds()) / float64(max(jobs, 1))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// streamSession is what the peeling needs of a scheduler session; the two
// policies the workloads serve with both provide it.
type streamSession interface {
	engine.BatchFeeder
	Pending() int
	Snapshot(w io.Writer) error
}

// openSession builds (restore == nil) or restores one shard's session the
// way the front door does for the workload's policy, and returns its closer.
func openSession(a serverArgs, hint int, restore io.Reader) (streamSession, func() error, error) {
	switch a.Policy {
	case "flowtime":
		opt := flowtime.Options{Epsilon: a.Eps, ParallelDispatch: 1, SizeHint: hint}
		var s *flowtime.Session
		var err error
		if restore != nil {
			s, err = flowtime.Restore(restore, opt)
		} else {
			s, err = flowtime.NewSession(a.Machines, opt)
		}
		if err != nil {
			return nil, nil, err
		}
		return s, func() error { _, err := s.Close(); return err }, nil
	case "speedscale":
		opt := speedscale.Options{Epsilon: a.Eps, Alpha: a.Alpha, ParallelDispatch: 1, SizeHint: hint}
		var s *speedscale.Session
		var err error
		if restore != nil {
			s, err = speedscale.Restore(restore, opt)
		} else {
			s, err = speedscale.NewSession(a.Machines, opt)
		}
		if err != nil {
			return nil, nil, err
		}
		return s, func() error { _, err := s.Close(); return err }, nil
	}
	return nil, nil, fmt.Errorf("no session constructor for policy %q", a.Policy)
}

// runTraced makes the traced run of one workload and returns every
// per-layer metric.
func runTraced(e *env, w *workload, opt runOptions, buildS float64) (*workloadResult, error) {
	tr := newTracer()
	tr.setRef(w.name + "/trace")
	root := tr.begin(0, "traced_run")
	m := layerSet{"server.build_s": buildS}
	var c checks
	jobsN := w.jobs()

	// workload, trace: generation alone, then the encode the set-up does.
	genDur := tr.do(root, "workload.generate", func() {
		var j sched.Job
		for _, spec := range w.streams {
			for g := newGenerator(spec); g.Next(&j); {
			}
		}
	})
	m["workload.gen_ns_per_job"] = perJob(genDur, jobsN)
	m["workload.jobs"] = float64(jobsN)
	var streams []*encoded
	var err error
	tr.do(root, "trace.encode", func() { streams, err = prepare(w, nil) })
	if err != nil {
		return nil, err
	}

	// Level 0, the wire: untraced, then telemetry on, then telemetry and spans.
	var plain, telem, full *wireRep
	for _, step := range []struct {
		rep       **wireRep
		telemetry bool
		spans     bool
		name      string
	}{{&plain, false, false, "wire.untraced"}, {&telem, true, false, "wire.telemetry"}, {&full, true, true, "wire.traced"}} {
		id := tr.begin(root, step.name)
		re := *e
		if step.spans {
			re.tr = tr
		}
		*step.rep, err = runWireRep(&re, w, streams, step.telemetry, id)
		tr.end(id, "jobs", int64(jobsN))
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", w.name, step.name, err)
		}
	}
	rate := func(r *wireRep) float64 { return float64(r.jobs) / r.wall.Seconds() }
	wireCPU := perJob(plain.serverCPU, jobsN) // ns per job
	m["client.cpu_s_per_mjobs"] = full.clientCPU.Seconds() / float64(jobsN) * 1e6
	m["client.write_ns_per_job"] = float64(full.writeNS) / float64(jobsN)
	m["client.ack_parse_ns_per_job"] = float64(full.parseNS) / float64(jobsN)
	m["client.send_late_p99_ms"] = float64(percentile(full.late, 99)) / 1e6
	m["client.ack_p99_ms"] = float64(percentile(full.lat, 99)) / 1e6
	m["client.ack_p999_ms"] = float64(percentile(full.lat, 99.9)) / 1e6
	m["client.ack_samples"] = float64(len(full.lat))
	m["server.start_ms"] = ms(plain.start)
	m["server.cpu_user_share"] = plain.userCPU.Seconds() / plain.serverCPU.Seconds()
	m["server.threads"] = float64(plain.threads)
	// 1 − (jobs/s with telemetry ÷ without), read through server CPU per job:
	// on a CPU-bound server the two ratios are the same number, the CPU one
	// varies less from run to run, and it stays meaningful in the open loop,
	// where the pacer pins jobs/s.
	m["obs.telemetry_overhead_share"] = 1 - float64(plain.serverCPU)/float64(telem.serverCPU)
	m["obs.scrape_ms"] = ms(full.scrapeDur)
	m["budget.trace_overhead_share"] = 1 - rate(full)/rate(plain)
	m["snapshot.dir_mb"] = float64(plain.dirBytes) / (1 << 20)
	if got := int(full.scraped.Value("front_fed_total")); got+int(full.scraped.Value("front_prerejected_total")) != jobsN && w.killAt == 0 {
		c.failf("scraped front_fed_total %d after the last ack, %d jobs were sent", got, jobsN)
	}
	// Guard rails on the instrument itself. The CPU one is for the closed
	// loop: the open-loop pacer spins on a core of its own by design (and an
	// in-process server shares the generator's process, so its CPU cannot be
	// told apart).
	var flags []string
	if e.bin != "" && w.rate == 0 && full.clientCPU*3 > full.serverCPU {
		flags = append(flags, fmt.Sprintf("generator CPU %v is more than a third of the server's %v", full.clientCPU, full.serverCPU))
	}
	if w.rate > 0 && percentile(full.late, 99) > percentile(full.lat, 50) {
		flags = append(flags, "open-loop send lateness p99 exceeds ack p50")
	}

	var tenants []int
	var jobs [][]sched.Job
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decDur := tr.do(root, "trace.decode", func() { tenants, jobs, err = decodeAll(streams) })
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	wireBytes := 0
	for _, s := range streams {
		wireBytes += len(s.buf)
	}
	m["trace.decode_ns_per_job"] = perJob(decDur, jobsN)
	m["trace.decode_allocs_per_job"] = float64(after.Mallocs-before.Mallocs) / float64(jobsN)
	m["trace.decode_bytes_alloc_per_job"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(jobsN)
	m["trace.wire_bytes_per_job"] = float64(wireBytes) / float64(jobsN)
	encDur := tr.do(root, "trace.encode_jobs", func() {
		for t, js := range jobs {
			nw, werr := trace.NewNDJSONWriter(io.Discard, w.streams[t].Machines, w.args.Alpha)
			for k := 0; k < len(js) && werr == nil; k++ {
				werr = nw.Write(&js[k])
			}
			if werr != nil {
				err = werr
			}
		}
	})
	if err != nil {
		return nil, err
	}
	m["trace.encode_ns_per_job"] = perJob(encDur, jobsN)
	all := merged(tenants, jobs)

	// Level 1, the front door in process: no HTTP, no NDJSON, its own registry.
	ckDir, err := os.MkdirTemp(e.outDir, "lineage-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckDir)
	args := w.args
	if w.killAt > 0 {
		args.Checkpoint = filepath.Join(ckDir, "f.ck")
	}
	reg := obs.NewRegistry()
	var fr *frontRun
	busyWall := tr.do(root, "front.inproc", func() {
		var srv *front.Server
		if srv, err = args.newFront(reg); err == nil {
			fr, err = runFront(srv, tenants, jobs, nil, true)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s in-process front: %w", w.name, err)
	}
	frontCPU := perJob(fr.cpu, jobsN)
	m["front.inproc_jobs_per_s"] = float64(jobsN) / fr.wall.Seconds()
	m["front.inproc_cpu_us_per_job"] = frontCPU / 1e3
	m["front.push_to_ack_p50_us"] = float64(percentile(fr.lat, 50)) / 1e3
	m["front.push_to_ack_p99_us"] = float64(percentile(fr.lat, 99)) / 1e3
	m["front.drain_ms"] = ms(fr.drain)
	hist := func(name string) obs.HistSnapshot { return reg.Histogram(name).Snapshot() }
	decide, popWait, ackH := hist("front_decide_ns"), hist("front_merge_pop_wait_ns"), hist("front_ack_ns")
	m["front.decide_ns_per_job"] = decide.Mean()
	m["front.pop_wait_ns_per_job"] = popWait.Mean()
	m["front.ack_ns_per_job"] = ackH.Mean()
	m["front.sequencer_busy_fraction"] = float64(reg.Counter("front_sequencer_busy_ns_total").Value()) / float64(busyWall.Nanoseconds())
	pin := opt.pinFor(w.name)
	if w.batch {
		pin = "" // engine_batch pins its outcomes, not the report of pricing them over the wire
	}
	c.verifyWire(w, []*wireRep{plain, telem, full}, fr.report, all, pin)

	if err := durabilityProbe(tr, root, w, args, reg, ckDir, tenants, jobs, fr.report, m, &c); err != nil {
		return nil, fmt.Errorf("%s durability probe: %w", w.name, err)
	}

	// admission: the controller runs per job even with its watermarks off.
	adm, err := admission.New(admission.Config{})
	if err != nil {
		return nil, err
	}
	admDur := tr.do(root, "admission.decide", func() {
		for k := range all {
			adm.Observe(k & 255)
			adm.Decide(all[k].ID>>32, all[k].Weight)
		}
	})
	m["admission.decide_ns_per_job"] = perJob(admDur, jobsN)
	var ackBuf bytes.Buffer
	bw := bufio.NewWriter(&ackBuf)
	enc := json.NewEncoder(bw)
	ackDur := tr.do(root, "front.ack_encode", func() {
		for k := range all {
			enc.Encode(front.Ack{ID: all[k].ID & 0xffffffff, St: chaos.AckOK})
			if ackBuf.Len() > 1<<20 {
				ackBuf.Reset()
			}
		}
		bw.Flush()
	})
	m["front.ack_encode_ns_per_job"] = perJob(ackDur, jobsN)

	shardCPU, sessionCPU, peak, parts, err := enginePeel(tr, root, w.args, all, m)
	if err != nil {
		return nil, fmt.Errorf("%s engine levels: %w", w.name, err)
	}

	// The policies and the structures under them see what one session sees:
	// the first shard's sub-stream.
	if err := policyProbes(tr, root, &sched.Instance{Machines: w.args.Machines, Jobs: parts[0]}, m, &c); err != nil {
		return nil, fmt.Errorf("%s policy probes: %w", w.name, err)
	}
	structureProbes(tr, root, parts[0], peak, m)

	// The budget: shares of the wire server's CPU per job.
	decodeNS := m["trace.decode_ns_per_job"]
	m["front.http_residual_us_per_job"] = (wireCPU - frontCPU - decodeNS) / 1e3
	m["budget.decode_share"] = decodeNS / wireCPU
	m["budget.engine_share"] = sessionCPU / wireCPU
	m["budget.shard_share"] = (shardCPU - sessionCPU) / wireCPU
	m["budget.sequencer_share"] = (frontCPU - shardCPU) / wireCPU
	m["budget.http_share"] = (wireCPU - frontCPU - decodeNS) / wireCPU
	m["budget.named_share"] = (decodeNS + frontCPU) / wireCPU

	tr.end(root)
	if err := tr.write(filepath.Join(e.outDir, "trace."+w.name+".json")); err != nil {
		return nil, err
	}
	res := &workloadResult{Name: w.name, Traced: true, Reps: 1, Digest: digest(fr.report), Flags: flags, AckSamples: len(full.lat)}
	per := map[string][]float64{}
	for _, d := range opt.defs.PerLayer {
		if v, ok := m[d.Name]; ok {
			per[d.Name] = []float64{v}
		}
	}
	for _, r := range []*wireRep{plain, telem, full} {
		res.Attempted += r.jobs
		res.Failed += r.missing + r.extraAcks
	}
	res.finish(opt.defs.PerLayer, per, &c)
	return res, nil
}

// durabilityProbe measures the checkpoint path on the first 100k jobs of
// each stream (the whole stream when the workload itself checkpoints, in
// which case the in-process run above already wrote the lineage): the front
// door's checkpoint cadence, the lineage on disk, recovery, Restore, the dup
// path of a full replay, and delta encode/apply on two consecutive payloads.
func durabilityProbe(tr *tracer, root int, w *workload, args serverArgs, reg *obs.Registry, dir string,
	tenants []int, jobs [][]sched.Job, reference []byte, m layerSet, c *checks) error {
	limit := make([]int, len(jobs))
	fedJobs := 0
	for t := range jobs {
		limit[t] = len(jobs[t])
		if w.killAt == 0 {
			limit[t] = min(limit[t], 100000)
		}
		fedJobs += limit[t]
	}
	if w.killAt == 0 {
		// The workload runs without checkpoints: price them here instead.
		args.Checkpoint = filepath.Join(dir, "f.ck")
		args.Every, args.Deltas, args.Keep = max(fedJobs/10, 1), 8, 3
		reg = obs.NewRegistry()
		var err error
		tr.do(root, "front.inproc_checkpointing", func() {
			var srv *front.Server
			if srv, err = args.newFront(reg); err == nil {
				_, err = runFront(srv, tenants, jobs, limit, false)
			}
		})
		if err != nil {
			return err
		}
		m["snapshot.dir_mb"] = float64(dirSize(dir)) / (1 << 20)
	}
	ck := reg.Histogram("front_checkpoint_ns").Snapshot()
	m["front.checkpoint_ms_p50"] = ck.Quantile(0.5) / 1e6
	m["front.checkpoint_count"] = float64(ck.Count)

	var payload []byte
	var err error
	m["snapshot.recover_ms"] = ms(tr.do(root, "snapshot.recover", func() {
		payload, _, err = snapshot.RecoverLineage(args.Checkpoint)
	}))
	if err != nil {
		return err
	}

	// Two consecutive payloads: the newest full that has a delta after it,
	// and that delta applied to it.
	lin, err := snapshot.OpenLineage(args.Checkpoint, snapshot.LineageOptions{})
	if err != nil {
		return err
	}
	entries := lin.Entries()
	for k := len(entries) - 2; k >= 0; k-- {
		if entries[k].Kind != "full" || entries[k+1].Kind != "delta" {
			continue
		}
		base, err := os.ReadFile(filepath.Join(dir, entries[k].File))
		if err != nil {
			return err
		}
		delta, err := os.ReadFile(filepath.Join(dir, entries[k+1].File))
		if err != nil {
			return err
		}
		var next []byte
		m["snapshot.apply_delta_ms"] = ms(tr.do(root, "snapshot.apply_delta", func() {
			next, _, err = snapshot.ApplyDelta(base, bytes.NewReader(delta))
		}))
		if err != nil {
			return err
		}
		var again bytes.Buffer
		m["snapshot.encode_delta_ms"] = ms(tr.do(root, "snapshot.encode_delta", func() {
			_, err = snapshot.EncodeDelta(&again, base, next, entries[k].Seq, entries[k+1].Seq, 0)
		}))
		if err != nil {
			return err
		}
		m["snapshot.delta_ratio"] = float64(len(delta)) / float64(len(next))
		// Periodic checkpoint number s (from 0) freezes the first (s+1)·Every fed jobs.
		m["snapshot.full_bytes_per_job"] = float64(len(next)) / float64((int(entries[k+1].Seq)+1)*args.Every)
		scratch, err := snapshot.OpenLineage(filepath.Join(dir, "probe.ck"), snapshot.LineageOptions{DeltaEvery: 1})
		if err != nil {
			return err
		}
		if _, err := scratch.Write(base, true); err != nil {
			return err
		}
		m["snapshot.lineage_write_ms"] = ms(tr.do(root, "snapshot.lineage_write", func() {
			_, err = scratch.Write(next, false)
		}))
		if err != nil {
			return err
		}
		break
	}
	for _, name := range []string{"snapshot.apply_delta_ms", "snapshot.encode_delta_ms", "snapshot.delta_ratio",
		"snapshot.full_bytes_per_job", "snapshot.lineage_write_ms"} {
		if _, ok := m[name]; !ok {
			return fmt.Errorf("the lineage holds no full checkpoint followed by a delta (entries: %d)", len(entries))
		}
	}

	// Restore from the recovered payload (the drain-time full: every job
	// decided), then replay everything: all dups.
	args.Checkpoint = ""
	var srv *front.Server
	m["front.restore_ms"] = ms(tr.do(root, "front.restore", func() {
		srv, err = front.Restore(args.frontConfig(nil), bytes.NewReader(payload))
	}))
	if err != nil {
		return err
	}
	var replay *frontRun
	tr.do(root, "front.replay_dups", func() { replay, err = runFront(srv, tenants, jobs, limit, false) })
	if err != nil {
		return err
	}
	if replay.acks['d'] != fedJobs {
		c.failf("replay into the restored server: %d dup acks for %d decided jobs", replay.acks['d'], fedJobs)
	}
	if w.killAt > 0 && !bytes.Equal(replay.report, reference) {
		c.failf("restored server's report differs from the uninterrupted reference")
	}
	m["front.dup_ns_per_job"] = perJob(replay.wall, fedJobs)
	return nil
}

// enginePeel runs levels 2 and 3: the merged stream through engine.Shard
// over one session per shard, then each shard's sub-stream through its
// session alone on this goroutine. It returns both levels' CPU per job (ns)
// the deepest pending backlog seen, and the per-shard sub-streams.
func enginePeel(tr *tracer, root int, a serverArgs, all []sched.Job, m layerSet) (shardCPU, sessionCPU float64, peak int, parts [][]sched.Job, err error) {
	route := engine.RouteByTenant(func(j *sched.Job) int { return j.ID >> 32 })
	n := len(all)
	hint := engine.PerShardHint(n, a.Shards)

	feeders := make([]engine.Feeder, a.Shards)
	closers := make([]func() error, a.Shards)
	for k := range feeders {
		s, cl, err := openSession(a, hint, nil)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		feeders[k], closers[k] = s, cl
	}
	sh := engine.NewShardOpts(feeders, engine.ShardOptions{Route: route})
	cpu0 := selfUsage().CPU
	var feedDur time.Duration
	wall := tr.do(root, "engine.shard", func() {
		t0 := time.Now()
		for k := range all {
			if err = sh.Feed(all[k]); err != nil {
				return
			}
		}
		feedDur = time.Since(t0)
		err = sh.Wait()
	})
	if err != nil {
		return 0, 0, 0, nil, err
	}
	shardCPU = perJob(selfUsage().CPU-cpu0, n)
	for _, cl := range closers {
		if err := cl(); err != nil {
			return 0, 0, 0, nil, err
		}
	}
	m["engine.shard_jobs_per_s"] = float64(n) / wall.Seconds()
	m["engine.shard_feed_ns_per_job"] = perJob(feedDur, n)
	m["engine.shard_cpu_us_per_job"] = shardCPU / 1e3

	parts = make([][]sched.Job, a.Shards)
	for k := range all {
		s := route(&all[k], a.Shards)
		parts[s] = append(parts[s], all[k])
	}
	var feedWall, closeWall time.Duration
	cpu0 = selfUsage().CPU
	for _, part := range parts {
		s, cl, err := openSession(a, hint, nil)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		feedWall += tr.do(root, "engine.session", func() {
			for lo := 0; lo < len(part) && err == nil; lo += 256 {
				err = s.FeedBatch(part[lo:min(lo+256, len(part))])
				peak = max(peak, s.Pending())
			}
		})
		if err != nil {
			return 0, 0, 0, nil, err
		}
		closeWall += tr.do(root, "engine.close", func() { err = cl() })
		if err != nil {
			return 0, 0, 0, nil, err
		}
	}
	sessionCPU = perJob(selfUsage().CPU-cpu0, n)
	m["engine.session_jobs_per_s"] = float64(n) / (feedWall + closeWall).Seconds()
	m["engine.close_ms"] = ms(closeWall)
	m["engine.peak_pending"] = float64(peak)

	half := parts[0][:len(parts[0])/2]
	snapDur, snapBytes, thawDur, err := freezeThaw(tr, root, a, half)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	m["engine.snapshot_ms"] = ms(snapDur)
	m["engine.snapshot_bytes_per_job"] = float64(snapBytes) / float64(max(len(half), 1))
	m["engine.restore_ms"] = ms(thawDur)
	return shardCPU, sessionCPU, peak, parts, nil
}

const thawReps = 15

// freezeThaw feeds jobs to a fresh session, snapshots it mid-run, and
// restores the snapshot: what a crashed stream pays to come back. The restore
// is short and allocation-heavy — one after another on a quiet host, single
// restores spread by a quarter of their median — so it is repeated thawReps
// times and the median returned.
func freezeThaw(tr *tracer, root int, a serverArgs, jobs []sched.Job) (freeze time.Duration, size int, thaw time.Duration, err error) {
	s, cl, err := openSession(a, len(jobs), nil)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cl() // the donor's outcome is not needed
	if err := s.FeedBatch(jobs); err != nil {
		return 0, 0, 0, err
	}
	var snap bytes.Buffer
	freeze = tr.do(root, "engine.snapshot", func() { err = s.Snapshot(&snap) })
	if err != nil {
		return 0, 0, 0, err
	}
	var thaws []float64
	for k := 0; k < thawReps; k++ {
		// A restore allocates a lot in little time; whether a collection
		// cycle lands inside it would decide its duration. Collect first, so
		// every restore starts with the same headroom.
		runtime.GC()
		var thawed func() error
		d := tr.do(root, "engine.restore", func() { _, thawed, err = openSession(a, 0, bytes.NewReader(snap.Bytes())) })
		if err == nil {
			err = thawed()
		}
		if err != nil {
			return 0, 0, 0, err
		}
		thaws = append(thaws, float64(d))
	}
	return freeze, snap.Len(), time.Duration(median(thaws)), nil
}

// policyProbes times each engine policy's batch Run on the instance, the
// flowtime Run again on the calendar queue, and the sched/lowerbound calls
// the report phase makes.
func policyProbes(tr *tracer, root int, ins *sched.Instance, m layerSet, c *checks) error {
	n := len(ins.Jobs)
	var parts []sched.Metrics
	for _, p := range batchPolicies {
		var out *sched.Outcome
		var err error
		d := tr.do(root, "policy."+p.name+".run", func() { out, err = p.run(ins, "") })
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		m["policy."+p.name+".jobs_per_s"] = float64(n) / d.Seconds()
		var pm sched.Metrics
		md := tr.do(root, "sched.compute_metrics", func() { pm, err = sched.ComputeMetrics(ins, out) })
		if err != nil {
			return err
		}
		vd := tr.do(root, "sched.validate_outcome", func() { err = sched.ValidateOutcome(ins, out, p.mode) })
		if err != nil {
			c.failf("%s outcome: %v", p.name, err)
		}
		parts = append(parts, pm)
		if p.name == "flowtime" {
			m["sched.metrics_ns_per_job"] = perJob(md, n)
			m["sched.validate_ns_per_job"] = perJob(vd, n)
			d := tr.do(root, "policy.flowtime.run_calendar", func() { _, err = p.run(ins, engine.EventQueueCalendar) })
			if err != nil {
				return err
			}
			m["policy.flowtime.calendar_jobs_per_s"] = float64(n) / d.Seconds()
		}
	}
	m["sched.merge_metrics_us"] = float64(tr.do(root, "sched.merge_metrics", func() { sched.MergeMetrics(parts...) }).Nanoseconds()) / 1e3
	m["lowerbound.srpt_bound_ns_per_job"] = perJob(tr.do(root, "lowerbound.srpt_bound", func() { lowerbound.SRPTBound(ins) }), n)
	return nil
}

// structureProbes times the data structures under the policies on loads
// derived from the same jobs: both event queues on an arrival/completion
// replay, both rank indexes at the deepest backlog seen, and the argmin.
func structureProbes(tr *tracer, root int, all []sched.Job, peak int, m layerSet) {
	for _, q := range []struct {
		name string
		q    eventq.Interface
	}{{"heap", &eventq.Queue{}}, {"calendar", eventq.NewCalendar()}} {
		ops, peakLen := 0, 0
		d := tr.do(root, "eventq."+q.name, func() {
			for k := range all {
				j := &all[k]
				q.q.Push(eventq.Event{Time: j.Release, Kind: eventq.KindArrival, Job: int32(k), Machine: -1})
				q.q.Push(eventq.Event{Time: j.Release + j.MinProc(), Kind: eventq.KindCompletion, Job: int32(k)})
				ops += 2
				peakLen = max(peakLen, q.q.Len())
				for q.q.Len() > 0 && q.q.Peek().Time <= j.Release {
					q.q.Pop()
					ops++
				}
			}
			for q.q.Len() > 0 {
				q.q.Pop()
				ops++
			}
		})
		m["eventq."+q.name+"_ns_per_op"] = perJob(d, ops)
		m["eventq.peak_len"] = float64(peakLen)
	}

	type rankIndex interface {
		InsertVals(k ostree.Key, a, b float64)
		RankStatsVals(k ostree.Key) (int, float64, float64, float64, int)
		DeleteMin() (ostree.Key, bool)
	}
	size := min(max(peak, 16), len(all)/2)
	key := func(k int) ostree.Key {
		j := &all[k%len(all)]
		return ostree.Key{P: j.Proc[0], Release: j.Release, ID: j.ID}
	}
	const rounds = 200000
	for _, ix := range []struct {
		name string
		ix   rankIndex
	}{{"flat", ostree.NewFlat()}, {"treap", ostree.New(1)}} {
		for k := 0; k < size; k++ {
			ix.ix.InsertVals(key(k), all[k].Proc[0], all[k].Weight)
		}
		d := tr.do(root, "ostree."+ix.name+".rank", func() {
			for k := 0; k < rounds; k++ {
				ix.ix.RankStatsVals(key(size + k))
			}
		})
		m["ostree."+ix.name+"_rank_ns"] = perJob(d, rounds)
		d = tr.do(root, "ostree."+ix.name+".churn", func() {
			for k := 0; k < rounds; k++ {
				// The walk over all wraps, and DeleteMin need not remove what was
				// inserted, so a job can come round while its first key is still
				// indexed — and inserting a key twice corrupts either index. Job
				// ids are ≥ 0: a fresh negative one keeps every churn key unique.
				fresh := key(size + k)
				fresh.ID = -1 - k
				ix.ix.InsertVals(fresh, fresh.P, all[(size+k)%len(all)].Weight)
				ix.ix.DeleteMin()
			}
		})
		m["ostree."+ix.name+"_churn_ns"] = perJob(d, rounds)
	}

	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = all[i%len(all)].Proc[0]
	}
	eval := func(i int) float64 { return vals[i] }
	for _, p := range []struct {
		name       string
		workers, n int
	}{{"dispatch.argmin_ns_m8", 1, 8}, {"dispatch.argmin_ns_m16", 1, 16}, {"dispatch.argmin_ns_m64_pool", 2, 64}} {
		pool := dispatch.NewPool(p.workers, p.n)
		calls := rounds / p.workers / p.workers // the pooled path pays a rendezvous per call
		d := tr.do(root, p.name, func() {
			for k := 0; k < calls; k++ {
				pool.ArgMin(eval)
			}
		})
		pool.Close()
		m[p.name] = perJob(d, calls)
	}
}
