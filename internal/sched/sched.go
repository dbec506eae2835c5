// Package sched defines the domain model shared by every scheduler in this
// repository: jobs, instances, executed schedules (outcomes), the metrics the
// paper optimizes (total flow time, weighted flow time, energy under speed
// scaling) and validators that check the structural invariants of
// non-preemptive schedules.
//
// Conventions:
//   - Time is a float64 in arbitrary units; instants compare with a small
//     tolerance (Eps).
//   - Machines are indexed 0..M-1. Job.Proc[i] is the processing time
//     (volume, for speed-scaling problems) of the job on machine i.
//   - An Outcome records what a scheduler actually did. Metrics and
//     validation are computed from the Outcome alone, so every algorithm is
//     audited by the same code path.
package sched

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// The module is 64-bit only (DESIGN.md, "64-bit targets only"): an int holds
// a front-door gid, tenant<<32 | local id, and every job index. This
// assertion is the one place a 32-bit build stops, with "bits.UintSize - 64
// (untyped int constant -32) ... overflows": every package that handles jobs
// imports this one.
const _ uint = bits.UintSize - 64

// Eps is the tolerance used for floating-point comparisons of times and
// processed volumes throughout the package.
const Eps = 1e-7

// NoDeadline marks jobs without a deadline constraint.
var NoDeadline = math.Inf(1)

// Job is a single job of an online scheduling instance.
type Job struct {
	// ID identifies the job; unique within an instance.
	ID int
	// Release is the arrival time r_j. The job is unknown to online
	// algorithms before this time.
	Release float64
	// Weight w_j; 1 for unweighted objectives.
	Weight float64
	// Deadline d_j; NoDeadline unless the instance is a deadline
	// (energy-minimization) instance.
	Deadline float64
	// Proc[i] is the processing time p_ij of the job on machine i (its
	// processing volume for speed-scaling problems).
	Proc []float64
}

// Instance is a complete problem instance.
type Instance struct {
	// Machines is the number of unrelated machines.
	Machines int
	// Jobs holds the jobs sorted by non-decreasing release time.
	Jobs []Job
	// Alpha is the power exponent for energy objectives (P(s) = s^Alpha);
	// zero for pure flow-time instances.
	Alpha float64
}

// ValidateJob checks one job against the structural rules every ingestion
// path shares — Instance.Validate, the engine's streaming Session.Feed and
// the NDJSON trace reader all delegate here, so batch and streaming runs
// can never diverge on what counts as a well-formed job. lastRelease is the
// latest release already admitted (math.Inf(-1) for the first job); the job
// may precede it by at most Eps. Duplicate-id detection is the caller's
// job (it needs cross-job state).
func ValidateJob(j *Job, machines int, lastRelease float64) error {
	if len(j.Proc) != machines {
		return fmt.Errorf("job %d has %d processing times, want %d", j.ID, len(j.Proc), machines)
	}
	for i, p := range j.Proc {
		// Positive and finite as one range test: NaN and ±Inf fail it.
		if !(p > 0 && p <= math.MaxFloat64) {
			return fmt.Errorf("job %d has invalid p[%d]=%v", j.ID, i, p)
		}
	}
	if j.Weight <= 0 {
		return fmt.Errorf("job %d has non-positive weight %v", j.ID, j.Weight)
	}
	if !(j.Release >= 0) { // NaN fails too
		return fmt.Errorf("job %d has invalid release %v", j.ID, j.Release)
	}
	if j.Release < lastRelease-Eps {
		return fmt.Errorf("job %d released at %v after the sequence reached %v (jobs must arrive in release order)", j.ID, j.Release, lastRelease)
	}
	if j.Deadline <= j.Release && !math.IsInf(j.Deadline, 1) {
		return fmt.Errorf("job %d deadline %v not after release %v", j.ID, j.Deadline, j.Release)
	}
	return nil
}

// Validate checks structural well-formedness of the instance. Ids go
// through a pooled IDs table, which locates the first repeated id; the loop
// reports it at that job, so the first error is the first failing job's.
func (ins *Instance) Validate() error {
	if ins.Machines <= 0 {
		return errors.New("sched: instance needs at least one machine")
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	dup := s.ids.Build(ins.Jobs)
	last := math.Inf(-1)
	for k := range ins.Jobs {
		j := &ins.Jobs[k]
		if k == dup {
			return fmt.Errorf("sched: duplicate job id %d", j.ID)
		}
		if err := ValidateJob(j, ins.Machines, last); err != nil {
			return fmt.Errorf("sched: %w", err)
		}
		if j.Release > last {
			last = j.Release
		}
	}
	return nil
}

// TotalWeight returns the sum of all job weights.
func (ins *Instance) TotalWeight() float64 {
	var w float64
	for _, j := range ins.Jobs {
		w += j.Weight
	}
	return w
}

// MinProc returns min_i Proc[i] for job j.
func (j *Job) MinProc() float64 {
	m := math.Inf(1)
	for _, p := range j.Proc {
		if p < m {
			m = p
		}
	}
	return m
}

// SortJobs sorts jobs by (release, id), restoring the instance invariant
// after generators mutate the job list.
func (ins *Instance) SortJobs() {
	sort.Slice(ins.Jobs, func(a, b int) bool {
		ja, jb := ins.Jobs[a], ins.Jobs[b]
		if ja.Release != jb.Release {
			return ja.Release < jb.Release
		}
		return ja.ID < jb.ID
	})
}

// Interval is one contiguous execution of (part of) a job on a machine at a
// constant speed. Unit-speed schedulers use Speed == 1.
type Interval struct {
	Job     int
	Machine int
	Start   float64
	End     float64
	Speed   float64
}

// Work is the processing volume delivered by the interval.
func (iv Interval) Work() float64 { return (iv.End - iv.Start) * iv.Speed }

// Outcome is the audited record of a scheduler run.
type Outcome struct {
	// Intervals lists every execution the scheduler performed, including
	// the partial execution of jobs interrupted by a rejection.
	Intervals []Interval
	// Completed maps job id -> completion time for served jobs.
	Completed map[int]float64
	// Rejected maps job id -> rejection time for rejected jobs.
	Rejected map[int]float64
	// Assigned maps job id -> machine the job was dispatched to.
	Assigned map[int]int
}

// NewOutcome returns an empty outcome ready for recording.
func NewOutcome() *Outcome { return NewOutcomeSized(0) }

// NewOutcomeSized returns an empty outcome with storage preallocated for an
// instance of n jobs, so recording a run of n completions stays off the map
// growth path.
func NewOutcomeSized(n int) *Outcome {
	return &Outcome{
		Intervals: make([]Interval, 0, n),
		Completed: make(map[int]float64, n),
		Rejected:  make(map[int]float64, n),
		Assigned:  make(map[int]int, n),
	}
}
