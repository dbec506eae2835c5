package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core/flowtime"
	"repro/internal/core/speedscale"
	"repro/internal/core/srpt"
	"repro/internal/core/wflow"
	"repro/internal/lowerbound"
	"repro/internal/sched"
	wlgen "repro/internal/workload"
)

// batchPolicy is one engine policy as the paper-reproduction user runs it:
// the package's batch Run and the validation mode cmd/schedsim pairs with it.
type batchPolicy struct {
	name string
	run  func(ins *sched.Instance, eventQueue string) (*sched.Outcome, error)
	mode sched.ValidateMode
}

const (
	batchEps   = 0.2
	batchAlpha = 2
)

var batchPolicies = []batchPolicy{
	{"flowtime", func(ins *sched.Instance, q string) (*sched.Outcome, error) {
		r, err := flowtime.Run(ins, flowtime.Options{Epsilon: batchEps, EventQueue: q})
		if err != nil {
			return nil, err
		}
		return r.Outcome, nil
	}, sched.ValidateMode{RequireUnitSpeed: true}},
	{"wflow", func(ins *sched.Instance, q string) (*sched.Outcome, error) {
		r, err := wflow.Run(ins, wflow.Options{Epsilon: batchEps, EventQueue: q})
		if err != nil {
			return nil, err
		}
		return r.Outcome, nil
	}, sched.ValidateMode{RequireUnitSpeed: true}},
	{"speedscale", func(ins *sched.Instance, q string) (*sched.Outcome, error) {
		r, err := speedscale.Run(ins, speedscale.Options{Epsilon: batchEps, Alpha: batchAlpha, EventQueue: q})
		if err != nil {
			return nil, err
		}
		return r.Outcome, nil
	}, sched.ValidateMode{}},
	{"srpt", func(ins *sched.Instance, q string) (*sched.Outcome, error) {
		r, err := srpt.Run(ins, srpt.Options{EventQueue: q})
		if err != nil {
			return nil, err
		}
		return r.Outcome, nil
	}, sched.ValidateMode{AllowPreemption: true, RequireUnitSpeed: true}},
	{"wsrpt", func(ins *sched.Instance, q string) (*sched.Outcome, error) {
		r, err := srpt.RunWeighted(ins, srpt.WeightedOptions{EventQueue: q})
		if err != nil {
			return nil, err
		}
		return r.Outcome, nil
	}, sched.ValidateMode{AllowMigration: true, RequireUnitSpeed: true}},
}

// batchInstances turns engine_batch's streams into instances and appends
// the Lemma 1 adversarial instance (flowtime only runs on that one).
func batchInstances(jobs [][]sched.Job, machines int) (random []*sched.Instance, lemma *sched.Instance) {
	for _, js := range jobs {
		random = append(random, &sched.Instance{Machines: machines, Jobs: js})
	}
	return random, wlgen.Lemma1Instance(64, batchEps)
}

// batchRep is one repetition of engine_batch.
type batchRep struct {
	jobs      int           // Σ jobs over every Run
	runWall   time.Duration // Σ Run wall
	report    time.Duration // ComputeMetrics + ValidateOutcome per outcome, SRPTBound per instance
	resume    time.Duration // flowtime.Restore of a mid-run session snapshot
	cpu       time.Duration // this process, over Run + report + resume
	peakRSSMB float64
	runNS     []int64 // sorted wall of each Run: the batch user's submit → outcome latency
	rejected  int     // Σ rejected over every Run
	flowRatio float64 // flowtime total flow ÷ SRPTBound, geometric mean over the random instances
	digest    string
	problems  []string
}

// runBatchRep runs every policy on every instance on one goroutine.
func runBatchRep(tr *tracer, parent int, random []*sched.Instance, lemma *sched.Instance) (*batchRep, error) {
	r := &batchRep{}
	h := sha256.New()
	logRatio := 0.0
	cpu0 := selfUsage().CPU
	offClock := func(f func()) {
		c := selfUsage().CPU
		f()
		cpu0 += selfUsage().CPU - c
	}
	one := func(p batchPolicy, ins *sched.Instance) (sched.Metrics, error) {
		var out *sched.Outcome
		var m sched.Metrics
		var err error
		wall := tr.do(parent, "policy."+p.name+".run", func() { out, err = p.run(ins, "") })
		if err != nil {
			return m, fmt.Errorf("%s: %w", p.name, err)
		}
		r.runWall += wall
		r.runNS = append(r.runNS, wall.Nanoseconds())
		r.jobs += len(ins.Jobs)
		r.report += tr.do(parent, "sched.report", func() {
			if m, err = sched.ComputeMetrics(ins, out); err == nil {
				err = sched.ValidateOutcome(ins, out, p.mode)
			}
		})
		if err != nil {
			r.problems = append(r.problems, fmt.Sprintf("%s outcome: %v", p.name, err))
		}
		r.rejected += m.Rejected
		offClock(func() { outcomeDigest(h, ins, out) }) // verification, not the user's path
		return m, nil
	}
	for _, ins := range random {
		var bound float64
		r.report += tr.do(parent, "lowerbound.srpt", func() { bound = lowerbound.SRPTBound(ins) })
		for _, p := range batchPolicies {
			m, err := one(p, ins)
			if err != nil {
				return nil, err
			}
			if p.name == "flowtime" {
				logRatio += math.Log(m.TotalFlow / bound)
				if float64(m.Rejected) > 2*batchEps*float64(len(ins.Jobs)) {
					r.problems = append(r.problems, fmt.Sprintf("Theorem 1 budget: %d rejected of %d", m.Rejected, len(ins.Jobs)))
				}
			}
		}
	}
	if _, err := one(batchPolicies[0], lemma); err != nil {
		return nil, err
	}
	r.flowRatio = math.Exp(logRatio / float64(len(random)))

	// What a crashed schedsim -stream run pays to come back: restore a
	// flowtime session frozen halfway through the first instance. Building
	// the donor is the probe's set-up, not the user's path.
	var err error
	offClock(func() {
		ins := random[0]
		args := serverArgs{Policy: "flowtime", Eps: batchEps, Machines: ins.Machines}
		_, _, r.resume, err = freezeThaw(tr, parent, args, ins.Jobs[:len(ins.Jobs)/2])
	})
	if err != nil {
		return nil, err
	}
	r.cpu = selfUsage().CPU - cpu0
	r.peakRSSMB = selfUsage().PeakRSSMB
	slices.Sort(r.runNS)
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r, nil
}
