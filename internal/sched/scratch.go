package sched

import (
	"fmt"
	"math"
	"math/bits"
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
// The outcome maps are read the same way: view ranges over each map once
// into columns by compact index, so the per-job loops index slices instead
// of hashing every job id three to five times. The view is rebuilt on every
// call, never kept: the maps are public and mutable, and stay the source of
// truth.
//
// A scratch is not safe for concurrent use; the zero value is ready.
type scratch struct {
	ids IDs // id→compact-index table, rebuilt per call into reused storage

	// The outcome view, one entry per compact index (13 bytes a job).
	state []uint8   // viewDone | viewRejected | viewAssigned
	at    []float64 // completion time if done, else rejection time
	mach  []int32   // Assigned machine; -1 for a value int32 cannot hold

	counts []int32    // counting-sort histogram / cursors
	offs   []int32    // group offsets, len = groups+1
	ivs    []Interval // counting-sorted interval copy
	flows  []float64  // per-job flow buffer for the percentile selection
	edges  []edge     // EnergyOf sweep edges
}

// Outcome view state bits: the job is in Completed, in Rejected, in
// Assigned.
const (
	viewDone uint8 = 1 << iota
	viewRejected
	viewAssigned
)

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

// view builds s.ids over ins.Jobs and gathers the outcome maps into the
// view columns, ranging over each map once and skipping ids the instance
// does not hold; with assigned, Assigned too. A job in both Completed and
// Rejected keeps its completion time in at; its rejection time is read
// from the map (such an outcome is invalid, so that path is cold). It
// returns the position of the first job whose id repeats an earlier one's,
// or -1, as IDs.Build does.
func (s *scratch) view(ins *Instance, o *Outcome, assigned bool) (dup int) {
	dup = s.ids.Build(ins.Jobs)
	state := growTo(s.state, s.ids.n)
	clear(state)
	at := growTo(s.at, s.ids.n)
	for id, c := range o.Completed {
		if x := s.ids.Of(id); x >= 0 {
			state[x], at[x] = viewDone, c
		}
	}
	for id, c := range o.Rejected {
		if x := s.ids.Of(id); x >= 0 {
			if state[x] == 0 {
				at[x] = c
			}
			state[x] |= viewRejected
		}
	}
	if assigned {
		mach := growTo(s.mach, s.ids.n)
		for id, m := range o.Assigned {
			if x := s.ids.Of(id); x >= 0 {
				state[x] |= viewAssigned
				if mach[x] = int32(m); int(mach[x]) != m {
					mach[x] = -1 // never a machine an interval ran on
				}
			}
		}
		s.mach = mach
	}
	s.state, s.at = state, at
	return dup
}

// ComputeMetrics derives Metrics from an outcome, reusing the scratch
// arenas. It never mutates its arguments. Energy integrates machine power
// over the breakpoint sweep of all intervals per machine, so overlapping
// executions (allowed in the §4 model) cost (Σ speeds)^α.
func (s *scratch) ComputeMetrics(ins *Instance, o *Outcome) (Metrics, error) {
	var m Metrics
	s.view(ins, o, false)
	flows := growTo(s.flows, len(ins.Jobs))[:0]
	for k := range ins.Jobs {
		j := &ins.Jobs[k]
		x := s.ids.Of(j.ID)
		st, t := s.state[x], s.at[x]
		if st&(viewDone|viewRejected) == 0 {
			s.flows = flows
			return m, fmt.Errorf("sched: job %d neither completed nor rejected", j.ID)
		}
		// A rejected job's flow runs to its rejection (the paper's
		// accounting); a job in both maps counts its completion.
		f := t - j.Release
		flows = append(flows, f)
		m.TotalFlow += f
		m.WeightedFlow += j.Weight * f
		if f > m.MaxFlow {
			m.MaxFlow = f
		}
		if st&viewDone != 0 {
			m.Completed++
			if t > m.Makespan {
				m.Makespan = t
			}
		}
		if st&viewRejected != 0 {
			m.Rejected++
			m.RejectedWeight += j.Weight
			if st&viewDone != 0 {
				t = o.Rejected[j.ID]
			}
			if t > m.Makespan {
				m.Makespan = t
			}
		}
	}
	if len(flows) > 0 {
		m.MeanFlow = m.TotalFlow / float64(len(flows))
		m.P99Flow = p99(flows)
	}
	s.flows = flows
	if ins.Alpha > 0 {
		m.Energy = s.EnergyOf(ins, o.Intervals)
	}
	return m, nil
}

// p99 returns the element slices.Sort(flows) would leave at the ceil-rank
// index ⌈0.99n⌉−1, reordering flows. It selects instead of sorting: O(n)
// expected, not O(n log n). The sort's order ties only equal values, and
// equal values differ in bits only as −0 beside +0 or as NaNs of different
// payloads, which the sort may leave in either order; flows holding a −0 or
// a NaN are sorted as before, so the result is the sort's, bit for bit.
// Zero for no flows.
func p99(flows []float64) float64 {
	if len(flows) == 0 {
		return 0
	}
	k := max(int(math.Ceil(0.99*float64(len(flows))))-1, 0)
	for _, f := range flows {
		if f != f || f == 0 && math.Signbit(f) {
			slices.Sort(flows)
			return flows[k]
		}
	}
	return selectKth(flows, k)
}

// selectKth reorders v so that v[k] holds the element of rank k, and returns
// it: quickselect with a median-of-three pivot and a three-way partition,
// so runs of equal values cost one pass. A range still unresolved after
// 2·log₂n partitions is sorted, which bounds the worst case at O(n log n).
// v must hold no NaN.
func selectKth(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	for budget := 2 * bits.Len(uint(len(v))); hi-lo > 16 && budget > 0; budget-- {
		a, b, c := v[lo], v[lo+(hi-lo)/2], v[hi]
		if a > b {
			a, b = b, a
		}
		p := max(a, min(b, c)) // median of three
		// v[lo:lt] < p, v[lt:i] == p, v[gt+1:hi+1] > p.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch x := v[i]; {
			case x < p:
				v[lt], v[i] = x, v[lt]
				lt++
				i++
			case x > p:
				v[i], v[gt] = v[gt], x
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return v[k]
		}
	}
	slices.Sort(v[lo : hi+1])
	return v[k]
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
// arenas: the outcome view gathers each job's state, times and assignment,
// one pass checks interval well-formedness and resolves jobs, a counting
// sort groups executions per job for the structural checks, and a second
// grouping per machine drives the overlap sweep.
func (s *scratch) ValidateOutcome(ins *Instance, o *Outcome, mode ValidateMode) error {
	// The assignment cross-check is skipped under AllowMigration, and so is
	// gathering Assigned.
	dup := s.view(ins, o, !mode.AllowMigration)
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
			// Intervals are grouped by compact index but read at instance
			// position k: the two agree only up to the first repeated id.
			return fmt.Errorf("sched: duplicate job id %d", j.ID)
		}
		x := s.ids.Of(j.ID)
		st, t := s.state[x], s.at[x]
		done, rej := st&viewDone != 0, st&viewRejected != 0
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
			if !(math.Abs(t-lastEnd) <= Eps*(1+t)) {
				return fmt.Errorf("sched: job %d completion %v != last interval end %v", j.ID, t, lastEnd)
			}
			if mode.RequireDeadlines && t > j.Deadline+Eps*(1+j.Deadline) {
				return fmt.Errorf("sched: job %d completed %v after deadline %v", j.ID, t, j.Deadline)
			}
			if st&viewAssigned != 0 && int(s.mach[x]) != machine && !mode.AllowMigration {
				return fmt.Errorf("sched: job %d assigned to %d but ran on %d", j.ID, o.Assigned[j.ID], machine)
			}
		} else { // rejected
			if len(ivs) > 0 {
				if !(lastEnd <= t+Eps*(1+t)) {
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
			if !(t >= j.Release-Eps) || math.IsInf(t, 1) {
				return fmt.Errorf("sched: job %d rejected at %v before release %v", j.ID, t, j.Release)
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
