package baseline

import (
	"repro/internal/core/srpt"
	"repro/internal/sched"
)

// PreemptiveSRPT is the preemptive reference comparator: jobs are dispatched
// to the machine with the least remaining backlog (plus the job's own
// processing time) and each machine runs shortest-remaining-processing-time
// with preemption and no rejections.
//
// The paper's algorithms are non-preemptive; this policy shows what the
// *ability to preempt* buys on the same instances (it is optimal for total
// flow time on a single machine). Outcomes validate only with
// sched.ValidateMode{AllowPreemption: true}.
//
// The policy is internal/core/srpt's, hosted on internal/engine like every
// baseline. Use srpt.Run directly for the preemption counters or
// srpt.NewSession for the streaming form.
func PreemptiveSRPT(ins *sched.Instance) (*sched.Outcome, error) {
	res, err := srpt.Run(ins, srpt.Options{})
	if err != nil {
		return nil, err
	}
	return res.Outcome, nil
}
