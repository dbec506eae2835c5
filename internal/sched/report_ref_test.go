package sched

import (
	"fmt"
	"math"
	"slices"
)

// The per-lookup report: ComputeMetrics and ValidateOutcome the way they read
// an outcome before the dense view went in — three to five map lookups per
// job, and a full sort of the flows for one percentile. They are the
// reference FuzzOutcomeReport holds the view-based pair to, bit for bit and
// error for error, and are kept here only for that.

// FlowTime returns the flow time of job id: completion (or rejection, per the
// paper's accounting) time minus release. It returns an error for jobs the
// outcome knows nothing about.
func (o *Outcome) FlowTime(j *Job) (float64, error) {
	if c, ok := o.Completed[j.ID]; ok {
		return c - j.Release, nil
	}
	if c, ok := o.Rejected[j.ID]; ok {
		return c - j.Release, nil
	}
	return 0, fmt.Errorf("sched: job %d neither completed nor rejected", j.ID)
}

// quantileP99 reads the 99th percentile off sorted flow samples with the
// ceil-rank rule. Zero for an empty population.
func quantileP99(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(0.99*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// computeMetricsPerLookup is ComputeMetrics reading every job's outcome
// through Outcome.FlowTime and the Completed/Rejected maps.
func (s *scratch) computeMetricsPerLookup(ins *Instance, o *Outcome) (Metrics, error) {
	var m Metrics
	flows := growTo(s.flows, len(ins.Jobs))[:0]
	for k := range ins.Jobs {
		j := &ins.Jobs[k]
		f, err := o.FlowTime(j)
		if err != nil {
			s.flows = flows
			return m, err
		}
		flows = append(flows, f)
		m.TotalFlow += f
		m.WeightedFlow += j.Weight * f
		if f > m.MaxFlow {
			m.MaxFlow = f
		}
		if c, ok := o.Completed[j.ID]; ok {
			m.Completed++
			if c > m.Makespan {
				m.Makespan = c
			}
		}
		if c, ok := o.Rejected[j.ID]; ok {
			m.Rejected++
			m.RejectedWeight += j.Weight
			if c > m.Makespan {
				m.Makespan = c
			}
		}
	}
	if len(flows) > 0 {
		m.MeanFlow = m.TotalFlow / float64(len(flows))
		slices.Sort(flows)
		m.P99Flow = quantileP99(flows)
	}
	s.flows = flows
	if ins.Alpha > 0 {
		m.Energy = s.EnergyOf(ins, o.Intervals)
	}
	return m, nil
}

// validateOutcomePerLookup is ValidateOutcome reading every job's state,
// completion, rejection and assignment from the outcome maps.
func (s *scratch) validateOutcomePerLookup(ins *Instance, o *Outcome, mode ValidateMode) error {
	dup := s.ids.Build(ins.Jobs)
	// Every bound below is written so that a NaN fails it: a comparison
	// with NaN is false, so each check states what must hold and negates.
	for k := range o.Intervals {
		iv := &o.Intervals[k]
		if !(iv.Start >= -Eps && iv.End >= iv.Start-Eps) || math.IsInf(iv.End, 1) {
			return fmt.Errorf("sched: interval %+v malformed", *iv)
		}
		if !(iv.Speed > 0) || math.IsInf(iv.Speed, 1) {
			return fmt.Errorf("sched: interval %+v has non-positive or infinite speed", *iv)
		}
		if iv.Machine < 0 || iv.Machine >= ins.Machines {
			return fmt.Errorf("sched: interval %+v on unknown machine", *iv)
		}
		if mode.RequireUnitSpeed && math.Abs(iv.Speed-1) > Eps {
			return fmt.Errorf("sched: interval %+v not unit speed", *iv)
		}
		if s.ids.Of(iv.Job) < 0 {
			return fmt.Errorf("sched: interval references unknown job %d", iv.Job)
		}
	}
	s.groupIntervals(o.Intervals, len(ins.Jobs), func(iv *Interval) int { return s.ids.Of(iv.Job) })
	// The group buffers are only safe until the next grouping call (the
	// overlap sweep below re-sorts them by machine), so the per-job loop
	// runs to completion first.
	ivsByJob, offs := s.ivs, s.offs
	for k := range ins.Jobs {
		j := &ins.Jobs[k]
		if k == dup {
			return fmt.Errorf("sched: duplicate job id %d", j.ID)
		}
		_, done := o.Completed[j.ID]
		rejT, rej := o.Rejected[j.ID]
		if done && rej {
			return fmt.Errorf("sched: job %d both completed and rejected", j.ID)
		}
		if !done && !rej {
			return fmt.Errorf("sched: job %d neither completed nor rejected", j.ID)
		}
		ivs := ivsByJob[offs[k]:offs[k+1]]
		if len(ivs) > 1 && !mode.AllowPreemption && !mode.AllowMigration {
			return fmt.Errorf("sched: job %d executed in %d separate intervals (preempted)", j.ID, len(ivs))
		}
		// work accumulates delivered volume; under AllowMigration it
		// accumulates the machine-relative fraction work/p_ij instead, so
		// conservation is checked against 1 rather than one machine's
		// processing time. completing tracks the machine of the
		// latest-ending segment.
		var work, lastEnd, prevEnd float64
		machine, completing := -1, -1
		for i := range ivs {
			iv := &ivs[i]
			if !(iv.Start >= j.Release-Eps) {
				return fmt.Errorf("sched: job %d started %v before release %v", j.ID, iv.Start, j.Release)
			}
			if machine == -1 {
				machine = iv.Machine
			} else if machine != iv.Machine && !mode.AllowMigration {
				return fmt.Errorf("sched: job %d migrated between machines %d and %d", j.ID, machine, iv.Machine)
			}
			// A job is sequential even when migratory: its segments (sorted
			// by start) must be disjoint in time, or the job would execute
			// on two machines at once — a hole the per-machine overlap
			// check below cannot see.
			if mode.AllowMigration && iv.Start < prevEnd-Eps*(1+prevEnd) {
				return fmt.Errorf("sched: job %d executes on machines concurrently (segment at %v starts before %v)", j.ID, iv.Start, prevEnd)
			}
			if iv.End > prevEnd {
				prevEnd = iv.End
			}
			if mode.AllowMigration {
				work += iv.Work() / j.Proc[iv.Machine]
			} else {
				work += iv.Work()
			}
			if iv.End > lastEnd {
				lastEnd = iv.End
				completing = iv.Machine
			}
		}
		if done {
			if len(ivs) == 0 {
				return fmt.Errorf("sched: completed job %d has no execution", j.ID)
			}
			if mode.AllowMigration {
				// Tolerance mirrors the engine's sliver rule: a preemption
				// within Eps of a start is deducted from the resumed volume
				// but not recorded as an interval, so each segment boundary
				// may hide up to Eps time — a fraction Eps/p̃_j on the
				// fastest machine. The floor matches the engine audit's
				// relative tolerance (its volAuditTol), which tracks true
				// execution including unrecorded slivers and is the strict
				// conservation check; this validator sees only the recorded
				// intervals.
				tol := Eps * (1 + float64(len(ivs))/j.MinProc())
				if tol < 1e-6 {
					tol = 1e-6
				}
				if math.Abs(work-1) > tol {
					return fmt.Errorf("sched: job %d received %v of its volume across migratory segments (completing machine %d needs the full job)", j.ID, work, completing)
				}
			} else {
				need := j.Proc[machine]
				if math.Abs(work-need) > Eps*(1+need) {
					return fmt.Errorf("sched: job %d got work %v on machine %d, needs %v", j.ID, work, machine, need)
				}
			}
			if c := o.Completed[j.ID]; !(math.Abs(c-lastEnd) <= Eps*(1+c)) {
				return fmt.Errorf("sched: job %d completion %v != last interval end %v", j.ID, c, lastEnd)
			}
			if mode.RequireDeadlines && o.Completed[j.ID] > j.Deadline+Eps*(1+j.Deadline) {
				return fmt.Errorf("sched: job %d completed %v after deadline %v", j.ID, o.Completed[j.ID], j.Deadline)
			}
			if am, ok := o.Assigned[j.ID]; ok && am != machine && !mode.AllowMigration {
				return fmt.Errorf("sched: job %d assigned to %d but ran on %d", j.ID, am, machine)
			}
		} else { // rejected
			if len(ivs) > 0 {
				if !(lastEnd <= rejT+Eps*(1+rejT)) {
					return fmt.Errorf("sched: rejected job %d executed past its rejection time", j.ID)
				}
				if mode.AllowMigration {
					if work > 1+Eps {
						return fmt.Errorf("sched: rejected job %d over-processed across migratory segments", j.ID)
					}
				} else if work > j.Proc[machine]+Eps {
					return fmt.Errorf("sched: rejected job %d over-processed", j.ID)
				}
			}
			if !(rejT >= j.Release-Eps) || math.IsInf(rejT, 1) {
				return fmt.Errorf("sched: job %d rejected at %v before release %v", j.ID, rejT, j.Release)
			}
		}
	}
	if !mode.AllowParallel {
		s.groupIntervals(o.Intervals, ins.Machines, func(iv *Interval) int { return iv.Machine })
		byMach, offs := s.ivs, s.offs
		for i := 0; i < ins.Machines; i++ {
			seg := byMach[offs[i]:offs[i+1]]
			for k := 1; k < len(seg); k++ {
				if seg[k].Start < seg[k-1].End-Eps*(1+seg[k-1].End) {
					return fmt.Errorf("sched: machine %d runs jobs %d and %d concurrently", i, seg[k-1].Job, seg[k].Job)
				}
			}
		}
	}
	return nil
}
