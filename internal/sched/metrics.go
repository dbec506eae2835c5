package sched

// Metrics summarizes the cost of an outcome under the objectives studied in
// the paper.
type Metrics struct {
	// TotalFlow is Σ_j F_j over all jobs, counting a rejected job's flow
	// until its rejection instant (the paper's convention).
	TotalFlow float64
	// WeightedFlow is Σ_j w_j F_j with the same convention.
	WeightedFlow float64
	// Energy is Σ_i ∫ (Σ_{running on i} s)^α dt. Zero when the instance
	// has Alpha == 0.
	Energy float64
	// MaxFlow is max_j F_j.
	MaxFlow float64
	// MeanFlow and P99Flow summarize the per-job flow distribution.
	MeanFlow float64
	P99Flow  float64
	// Completed / Rejected job counts and the rejected weight.
	Completed      int
	Rejected       int
	RejectedWeight float64
	// Makespan is the last completion/rejection instant.
	Makespan float64
}

// WeightedFlowPlusEnergy is the Theorem 2 objective.
func (m Metrics) WeightedFlowPlusEnergy() float64 { return m.WeightedFlow + m.Energy }

// MergeMetrics aggregates per-shard (or per-tenant-group) metric summaries
// into one fleet-level view: additive objectives and counts sum, MaxFlow and
// Makespan take the maximum, MeanFlow is recomputed from the summed flow and
// job count.
//
// P99Flow is the largest part's value: a population quantile cannot be
// reconstructed from per-part percentiles, so the merge reports an upper
// bound that is exact only when one part dominates the tail.
func MergeMetrics(parts ...Metrics) Metrics {
	var m Metrics
	jobs := 0
	for _, p := range parts {
		m.TotalFlow += p.TotalFlow
		m.WeightedFlow += p.WeightedFlow
		m.Energy += p.Energy
		m.Completed += p.Completed
		m.Rejected += p.Rejected
		m.RejectedWeight += p.RejectedWeight
		if p.MaxFlow > m.MaxFlow {
			m.MaxFlow = p.MaxFlow
		}
		if p.P99Flow > m.P99Flow {
			m.P99Flow = p.P99Flow
		}
		if p.Makespan > m.Makespan {
			m.Makespan = p.Makespan
		}
		jobs += p.Completed + p.Rejected
	}
	if jobs > 0 {
		m.MeanFlow = m.TotalFlow / float64(jobs)
	}
	return m
}

// ComputeMetrics derives Metrics from an outcome. It never mutates its
// arguments. Energy integrates machine power over the breakpoint sweep of all
// intervals per machine, so overlapping executions (allowed in the §4 model)
// cost (Σ speeds)^α.
//
// The computation runs on pooled arenas and allocates nothing once they have
// grown to the instance.
func ComputeMetrics(ins *Instance, o *Outcome) (Metrics, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.ComputeMetrics(ins, o)
}

// EnergyOf integrates Σ_i ∫ P_i(speed_i(t)) dt with P(s) = s^Alpha over the
// given intervals, summing speeds of concurrently running intervals on the
// same machine. Runs on pooled arenas.
func EnergyOf(ins *Instance, ivs []Interval) float64 {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.EnergyOf(ins, ivs)
}

// ValidateMode selects which invariants ValidateOutcome enforces.
type ValidateMode struct {
	// AllowParallel permits overlapping executions on one machine (the §4
	// energy model). Default false: machines run one job at a time.
	AllowParallel bool
	// AllowPreemption permits a job to execute in multiple intervals
	// (used only by the preemptive reference comparators; the paper's
	// algorithms are all non-preemptive). All of a job's intervals must
	// still be on one machine and deliver the full processing volume:
	// the sum of its executed segments must equal its processing time on
	// the completing machine.
	AllowPreemption bool
	// AllowMigration additionally permits a preempted job's segments to
	// run on different machines (the migratory comparator). Volume
	// conservation is then accounted machine-relatively: each segment
	// contributes the fraction work/p_ij of the machine it ran on, and a
	// completed job's fractions must sum to 1 — equivalently, its
	// segments rescaled to the completing machine sum to that machine's
	// processing time. Implies the multi-interval checks of
	// AllowPreemption; the machine-assignment cross-check is skipped
	// (dispatch and completion machines legitimately differ).
	AllowMigration bool
	// RequireDeadlines enforces completion before each job's deadline.
	RequireDeadlines bool
	// RequireUnitSpeed requires every interval to run at speed 1.
	RequireUnitSpeed bool
}

// ValidateOutcome audits an outcome against an instance:
//
//   - every job is either completed or rejected, never both;
//   - executions start at/after release and, per job, form one contiguous
//     constant-speed block (non-preemption); rejected jobs may have one
//     partial block ending at the rejection time;
//   - completed jobs receive their full processing volume on their machine —
//     under AllowPreemption summed over segments, under AllowMigration
//     summed machine-relatively (fractions work/p_ij adding to 1);
//   - machines run at most one job at a time unless AllowParallel;
//   - deadlines hold when RequireDeadlines.
//
// The audit runs on pooled arenas and allocates nothing once they have
// grown to the instance.
func ValidateOutcome(ins *Instance, o *Outcome, mode ValidateMode) error {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.ValidateOutcome(ins, o, mode)
}
