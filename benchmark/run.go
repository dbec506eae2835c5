package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/sched"
)

// runOptions is one invocation's protocol.
type runOptions struct {
	seed    int64
	quick   bool          // 1/50 sizes, one repetition, in-process server
	seconds time.Duration // > 0: repeat until this much time is measured (at least minReps)
	pins    pins
	defs    *manifest
}

const (
	defaultReps = 5  // repetitions per workload when seconds == 0
	minReps     = 3  // a median needs this many
	maxReps     = 25 // a fast host stops here
	startProbes = 10 // extra server starts before every wire repetition, beside its own

	// Before every repetition the inputs are generated again, for this long
	// and at least once. This host's speed wanders by a fifth within seconds,
	// memory-bound work most; set-up samples taken back to back would all see
	// one phase of it, samples spread over the whole run see them all.
	setupSlice = 300 * time.Millisecond
)

// medianTime calls f again and again for setupSlice, at least once, and
// returns the median duration of a call in seconds.
func medianTime(f func()) float64 {
	var took []float64
	for begin := time.Now(); len(took) == 0 || time.Since(begin) < setupSlice; {
		t0 := time.Now()
		f()
		took = append(took, time.Since(t0).Seconds())
	}
	return median(took)
}

// metricValue is one metric of one workload: every repetition's value and
// the summary the run reports.
type metricValue struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"` // the median of Values
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) metricValue {
	q1, q2, q3 := quartiles(values)
	return metricValue{Unit: unit, Value: q2, Q1: q1, Q3: q3, Values: values}
}

// workloadResult is what one workload's run produced.
type workloadResult struct {
	Name        string                 `json:"name"`
	Traced      bool                   `json:"traced"`
	Reps        int                    `json:"reps"`
	Metrics     map[string]metricValue `json:"metrics"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedShare float64                `json:"failed_share"`
	Correct     bool                   `json:"correct"`
	Failures    []string               `json:"failures,omitempty"`
	Flags       []string               `json:"flags,omitempty"` // guard rails on the instrument: the numbers stand, read them with care
	Digest      string                 `json:"digest"`
	AckSamples  int                    `json:"ack_samples"`
}

// more reports whether another repetition is due after done of them, the
// first of which began at start.
func (o runOptions) more(done int, start time.Time) bool {
	switch {
	case o.quick:
		return done < 1
	case o.seconds <= 0:
		return done < defaultReps
	}
	return done < minReps || (done < maxReps && time.Since(start) < o.seconds)
}

// prepare generates and pre-encodes every tenant stream of a wire workload,
// into recycle's storage when given.
func prepare(w *workload, recycle []*encoded) ([]*encoded, error) {
	streams := make([]*encoded, len(w.streams))
	for t, spec := range w.streams {
		var old *encoded
		if recycle != nil {
			old = recycle[t]
		}
		enc, err := encode(spec, w.args.Alpha, old)
		if err != nil {
			return nil, err
		}
		streams[t] = enc
	}
	return streams, nil
}

// decodeAll decodes every tenant stream and lists the tenant ids.
func decodeAll(streams []*encoded) (tenants []int, jobs [][]sched.Job, err error) {
	for _, enc := range streams {
		js, err := decode(enc)
		if err != nil {
			return nil, nil, err
		}
		tenants = append(tenants, enc.tenant)
		jobs = append(jobs, js)
	}
	return tenants, jobs, nil
}

// pinFor is the digest a workload's report must match, "" when the seed or
// the pin file has none.
func (o runOptions) pinFor(name string) string {
	if o.seed != defaultSeed {
		return ""
	}
	return o.pins[sizeName(o.quick)][name]
}

// sizeName is the pins.json key of a run's input size.
func sizeName(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

// runWire measures a wire workload end to end: tracing and telemetry off,
// a fresh server process per repetition, the same inputs every time.
func runWire(e *env, w *workload, opt runOptions) (*workloadResult, error) {
	var streams []*encoded // regenerated into the same storage: the bytes never change
	var reps []*wireRep
	var starts []float64
	per := map[string][]float64{}
	for start := time.Now(); opt.more(len(reps), start); {
		var err error
		gen := medianTime(func() {
			if err == nil {
				streams, err = prepare(w, streams)
			}
		})
		if err != nil {
			return nil, err
		}
		// A start takes tens of milliseconds and jitters by as much: the
		// repetition's own would make a poor sample of it.
		var probes []float64
		for k := 0; k < startProbes; k++ {
			srv, err := startServer(e.bin, w.args)
			if err != nil {
				return nil, err
			}
			probes = append(probes, srv.startDur.Seconds())
			srv.crash()
			if _, err := srv.reap(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // the generator's collector stays out of the timed window
		r, err := runWireRep(e, w, streams, false, 0)
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", w.name, len(reps), err)
		}
		probes = append(probes, r.start.Seconds())
		per["setup_s"] = append(per["setup_s"], gen+median(probes))
		starts = append(starts, probes...)
		reps = append(reps, r)
	}

	tenants, jobs, err := decodeAll(streams)
	if err != nil {
		return nil, err
	}
	srv, err := w.args.newFront(nil)
	if err != nil {
		return nil, err
	}
	ref, err := runFront(srv, tenants, jobs, nil, false)
	if err != nil {
		return nil, fmt.Errorf("%s in-process reference: %w", w.name, err)
	}
	var c checks
	rejected, ratio := c.verifyWire(w, reps, ref.report, merged(tenants, jobs), opt.pinFor(w.name))

	res := &workloadResult{Name: w.name, Reps: len(reps), Digest: digest(reps[0].report)}
	for _, r := range reps {
		n := float64(r.jobs)
		per["jobs_per_s"] = append(per["jobs_per_s"], n/r.wall.Seconds())
		per["cpu_s_per_mjobs"] = append(per["cpu_s_per_mjobs"], r.serverCPU.Seconds()/n*1e6)
		per["peak_rss_mb"] = append(per["peak_rss_mb"], r.peakRSSMB)
		per["drain_s"] = append(per["drain_s"], r.drain.Seconds())
		per["ack_p50_ms"] = append(per["ack_p50_ms"], float64(percentile(r.lat, 50))/1e6)
		per["ack_p90_ms"] = append(per["ack_p90_ms"], float64(percentile(r.lat, 90))/1e6)
		per["resume_s"] = append(per["resume_s"], r.resume.Seconds())
		res.Attempted += r.jobs
		res.Failed += r.missing + r.extraAcks
		res.AckSamples += len(r.lat)
	}
	if w.killAt == 0 {
		// Without a checkpoint there is nothing to recover: coming back after
		// a crash is a fresh start, and that is what resume_s reports then.
		per["resume_s"] = starts
	}
	per["rejected_share"] = []float64{rejected}
	per["flow_ratio"] = []float64{ratio}
	res.finish(slices.Concat(opt.defs.EndToEnd, reportedOnly), per, &c)
	return res, nil
}

// runBatch measures engine_batch end to end: in-process, one goroutine.
func runBatch(w *workload, opt runOptions) (*workloadResult, error) {
	jobs := make([][]sched.Job, len(w.streams))
	arenas := make([]arena, len(w.streams))
	var c checks
	res := &workloadResult{Name: w.name}
	per := map[string][]float64{}
	for start := time.Now(); opt.more(res.Reps, start); {
		per["setup_s"] = append(per["setup_s"], medianTime(func() {
			for t, spec := range w.streams {
				jobs[t] = arenas[t].collect(spec)
			}
		}))
		random, lemma := batchInstances(jobs, w.args.Machines)
		debug.FreeOSMemory() // every repetition starts from the same heap and resident set
		resetPeakRSS()
		r, err := runBatchRep(nil, 0, random, lemma)
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", w.name, res.Reps, err)
		}
		n := float64(r.jobs)
		per["jobs_per_s"] = append(per["jobs_per_s"], n/r.runWall.Seconds())
		per["cpu_s_per_mjobs"] = append(per["cpu_s_per_mjobs"], r.cpu.Seconds()/n*1e6)
		per["peak_rss_mb"] = append(per["peak_rss_mb"], r.peakRSSMB)
		per["drain_s"] = append(per["drain_s"], r.report.Seconds())
		per["ack_p50_ms"] = append(per["ack_p50_ms"], float64(percentile(r.runNS, 50))/1e6)
		per["ack_p90_ms"] = append(per["ack_p90_ms"], float64(percentile(r.runNS, 90))/1e6)
		per["resume_s"] = append(per["resume_s"], r.resume.Seconds())
		if res.Reps == 0 {
			res.Digest = r.digest
			per["rejected_share"] = []float64{float64(r.rejected) / n}
			per["flow_ratio"] = []float64{r.flowRatio}
			if pin := opt.pinFor(w.name); pin != "" && pin != r.digest {
				c.failf("outcome digest %s is not the pinned %s", r.digest, pin)
			}
		} else if r.digest != res.Digest {
			c.failf("rep %d: outcomes differ from rep 0's", res.Reps)
		}
		for _, p := range r.problems {
			c.failf("rep %d: %s", res.Reps, p)
		}
		res.Reps++
		res.Attempted += r.jobs
		res.AckSamples += len(r.runNS)
	}
	res.finish(slices.Concat(opt.defs.EndToEnd, reportedOnly), per, &c)
	return res, nil
}

// finish folds the per-repetition values of the listed metrics and the
// check verdicts into the result.
func (res *workloadResult) finish(defs []metricDef, per map[string][]float64, c *checks) {
	res.Metrics = map[string]metricValue{}
	for _, d := range defs {
		if len(per[d.Name]) == 0 {
			c.failf("BENCHMARK.json lists %s, which this run did not measure", d.Name)
		}
		res.Metrics[d.Name] = summarize(d.Unit, per[d.Name])
	}
	res.Failures = c.failed
	res.Failed += len(c.failed)
	res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0
}
