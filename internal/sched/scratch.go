package sched

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// scratch holds the reusable arenas of the reporting pipeline: metrics,
// validation and energy integration over an Outcome. The package-level
// ComputeMetrics / ValidateOutcome / EnergyOf (and Instance.Validate's id
// table) draw one from an internal pool, so callers get the
// allocation-free path without holding state.
//
// All grouping is dense: intervals are counting-sorted into a reused buffer
// keyed by the compact job index (the IDs table rebuilt O(n) per call into
// reused storage — never cached across calls, so a mutated or freshly
// allocated instance can't meet a stale index), then re-sorted by machine
// for the overlap sweep, replacing the map[int][]Interval + sorted-copy
// passes that dominated the old allocation profile.
//
// A scratch is not safe for concurrent use; the zero value is ready.
type scratch struct {
	ids IDs // id→compact-index table, rebuilt per call into reused storage

	counts []int32    // counting-sort histogram / cursors
	offs   []int32    // group offsets, len = groups+1
	ivs    []Interval // counting-sorted interval copy
	flows  []float64  // per-job flow buffer for the percentile sort
	edges  []edge     // EnergyOf sweep edges
}

// edge is one endpoint of an execution interval in the energy sweep:
// +speed at the start, -speed at the end.
type edge struct {
	t     float64
	speed float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// growTo returns a slice of exactly length n backed by s when it has the
// capacity, recycling the arena across calls. Contents are unspecified.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// ComputeMetrics derives Metrics from an outcome, reusing the scratch
// arenas. It never mutates its arguments. Energy integrates machine power
// over the breakpoint sweep of all intervals per machine, so overlapping
// executions (allowed in the §4 model) cost (Σ speeds)^α.
func (s *scratch) ComputeMetrics(ins *Instance, o *Outcome) (Metrics, error) {
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

// EnergyOf integrates Σ_i ∫ P_i(speed_i(t)) dt with P(s) = s^Alpha over the
// given intervals, summing speeds of concurrently running intervals on the
// same machine. The per-machine edge lists live in the scratch arena and
// are recycled across calls.
func (s *scratch) EnergyOf(ins *Instance, ivs []Interval) float64 {
	counts := growTo(s.counts, ins.Machines+1)
	for i := range counts {
		counts[i] = 0
	}
	for k := range ivs {
		if iv := &ivs[k]; iv.End > iv.Start {
			counts[iv.Machine] += 2
		}
	}
	offs := growTo(s.offs, ins.Machines+1)
	var total32 int32
	for i := 0; i < ins.Machines; i++ {
		offs[i] = total32
		total32 += counts[i]
		counts[i] = offs[i] // reuse as scatter cursor
	}
	offs[ins.Machines] = total32
	edges := growTo(s.edges, int(total32))
	for k := range ivs {
		if iv := &ivs[k]; iv.End > iv.Start {
			c := counts[iv.Machine]
			edges[c] = edge{iv.Start, iv.Speed}
			edges[c+1] = edge{iv.End, -iv.Speed}
			counts[iv.Machine] = c + 2
		}
	}
	s.counts, s.offs, s.edges = counts, offs, edges

	var total float64
	for i := 0; i < ins.Machines; i++ {
		seg := edges[offs[i]:offs[i+1]]
		slices.SortFunc(seg, func(a, b edge) int {
			switch {
			case a.t < b.t:
				return -1
			case a.t > b.t:
				return 1
			}
			return 0
		})
		var cur, last float64
		for _, e := range seg {
			if e.t > last && cur > Eps {
				total += (e.t - last) * math.Pow(cur, ins.Alpha)
			}
			if e.t > last {
				last = e.t
			}
			cur += e.speed
			if cur < 0 && cur > -Eps {
				cur = 0
			}
		}
	}
	return total
}

// groupIntervals counting-sorts a copy of the intervals into the scratch
// buffer grouped by key (group offsets land in s.offs, the copy in s.ivs),
// then sorts each group by (Start, Job). key must map every interval into
// [0, groups) — callers resolve job ids or machines first.
func (s *scratch) groupIntervals(ivs []Interval, groups int, key func(*Interval) int) {
	counts := growTo(s.counts, groups+1)
	for i := range counts[:groups] {
		counts[i] = 0
	}
	for k := range ivs {
		counts[key(&ivs[k])]++
	}
	offs := growTo(s.offs, groups+1)
	var total int32
	for g := 0; g < groups; g++ {
		offs[g] = total
		total += counts[g]
		counts[g] = offs[g] // scatter cursor
	}
	offs[groups] = total
	sorted := growTo(s.ivs, len(ivs))
	for k := range ivs {
		g := key(&ivs[k])
		sorted[counts[g]] = ivs[k]
		counts[g]++
	}
	for g := 0; g < groups; g++ {
		seg := sorted[offs[g]:offs[g+1]]
		if len(seg) > 1 {
			slices.SortFunc(seg, func(a, b Interval) int {
				switch {
				case a.Start < b.Start:
					return -1
				case a.Start > b.Start:
					return 1
				case a.Job < b.Job:
					return -1
				case a.Job > b.Job:
					return 1
				}
				return 0
			})
		}
	}
	s.counts, s.offs, s.ivs = counts, offs, sorted
}

// ValidateOutcome audits an outcome against an instance with the same
// invariants as the package-level ValidateOutcome, reusing the scratch
// arenas: one pass checks interval well-formedness and resolves jobs, a
// counting sort groups executions per job for the structural checks, and a
// second grouping per machine drives the overlap sweep.
func (s *scratch) ValidateOutcome(ins *Instance, o *Outcome, mode ValidateMode) error {
	s.ids.Build(ins.Jobs)
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
