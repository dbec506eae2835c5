// Package speedscale implements the paper's §3 algorithm: online
// non-preemptive minimization of total weighted flow time plus energy on
// unrelated machines under the speed-scaling model P(s) = s^α, with
// rejections (Theorem 2 of Lucarelli et al., SPAA 2018).
//
// The algorithm is O((1+1/ε)^(α/(α−1)))-competitive while rejecting jobs of
// total weight at most an ε fraction of the total weight. Its policies:
//
//   - Scheduling: pending jobs are ordered by non-increasing density
//     δ_ij = w_j/p_ij. When machine i becomes idle it starts the first
//     pending job at speed s = γ·(Σ_{ℓ∈U_i} w_ℓ)^(1/α), frozen for the whole
//     execution.
//   - Dispatching: job j goes to argmin_i λ_ij where
//     λ_ij = w_j·(p_ij/ε + Σ_{ℓ⪯j} p_iℓ/(γ·W_ℓ^(1/α)))
//   - (Σ_{ℓ≻j} w_ℓ)·p_ij/(γ·W_j^(1/α)),
//     with W_ℓ = Σ_{ℓ'⪰ℓ} w_ℓ' the suffix weights in the density order (the
//     pending weight at ℓ's projected start, hence its projected speed).
//   - Rejection: a weight counter v_k accumulates the weights dispatched to
//     the machine during the running job k's execution; k is interrupted
//     and rejected the first time v_k > w_k/ε.
//
// γ defaults to the paper's choice
// γ = (ε/(1+ε))^(1/(α−1)) · (α−1+ln(α−1))^((α−1)/α)/(α−1), falling back to
// (ε/(1+ε))^(1/(α−1)) when α−1+ln(α−1) ≤ 0 (α ≲ 1.567), where the paper's
// expression is undefined; any γ > 0 preserves correctness of the schedule,
// only the proven ratio constant changes.
//
// The event-loop mechanics live in internal/engine; this package is the
// engine Policy carrying the speed-scaled service and rejection rules,
// runnable in batch (Run) or streaming (Session) form with bit-identical
// outcomes.
package speedscale

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dispatch"
	"repro/internal/engine"
	"repro/internal/sched"
)

// Options configures a run.
type Options struct {
	// Epsilon ∈ (0,1): rejected weight budget fraction.
	Epsilon float64
	// Alpha > 1: power exponent (overrides the instance's Alpha when set;
	// if zero, Run uses the instance's Alpha. Streaming sessions have no
	// instance, so NewSession requires Alpha to be set explicitly).
	Alpha float64
	// Gamma > 0 overrides the paper's speed constant; 0 selects DefaultGamma.
	Gamma float64
	// TrackDual records per-job execution info for the Lemma 6 audit.
	TrackDual bool
	// ParallelDispatch sets the number of workers sharding the arrival-time
	// argmin_i λ_ij: 0 or 1 scans serially, ≥ 2 starts a worker pool of
	// that size. The choice never changes the output (see
	// internal/dispatch).
	ParallelDispatch int
	// SizeHint preallocates per-job storage for a stream of about this many
	// jobs (see engine.Options.SizeHint). Zero is valid — storage grows on
	// demand — and the hint never changes outcomes. Batch Run overrides it
	// with the instance's exact job count.
	SizeHint int
	// EventQueue names the engine's event-queue implementation
	// (engine.EventQueueHeap or engine.EventQueueCalendar; empty selects the
	// heap). Performance-only: outcomes are bit-identical either way.
	EventQueue string
}

// validate checks the option ranges and resolves γ (zero selects
// DefaultGamma).
func (o Options) validate() (gamma float64, err error) {
	if !(o.Epsilon > 0 && o.Epsilon < 1) {
		return 0, fmt.Errorf("speedscale: epsilon must be in (0,1), got %v", o.Epsilon)
	}
	if !(o.Alpha > 1) {
		return 0, fmt.Errorf("speedscale: alpha must exceed 1, got %v", o.Alpha)
	}
	gamma = o.Gamma
	if gamma == 0 {
		gamma = DefaultGamma(o.Epsilon, o.Alpha)
	}
	if !(gamma > 0) {
		return 0, fmt.Errorf("speedscale: gamma must be positive, got %v", gamma)
	}
	return gamma, nil
}

// DefaultGamma returns the paper's γ(ε, α) (with the documented fallback for
// small α).
func DefaultGamma(eps, alpha float64) float64 {
	base := math.Pow(eps/(1+eps), 1/(alpha-1))
	x := alpha - 1 + math.Log(alpha-1)
	if x <= 0 {
		return base
	}
	return base * math.Pow(x, (alpha-1)/alpha) / (alpha - 1)
}

// TheoryEnvelope returns the asymptotic competitive envelope
// (1+1/ε)^(α/(α−1)) that Theorem 2 proves up to a constant factor.
func TheoryEnvelope(eps, alpha float64) float64 {
	return math.Pow(1+1/eps, alpha/(alpha-1))
}

// Result is the audited output of a run.
type Result struct {
	Outcome *sched.Outcome
	// Gamma and Alpha actually used.
	Gamma, Alpha float64
	// Rejections counts rejected jobs; RejectedWeight sums their weights.
	Rejections     int
	RejectedWeight float64
	// Dual carries the analysis bookkeeping when Options.TrackDual.
	Dual *DualReport
}

// pitem is one pending job; id is the compact job index (feed order), the
// same key space events and the engine's run state use, so the hypothetical
// merge in lambdaFor and the real insert order can never disagree.
type pitem struct {
	id      int // compact job index
	w, p    float64
	density float64
	release float64
}

func pless(a, b pitem) bool {
	if a.density != b.density {
		return a.density > b.density // non-increasing density
	}
	if a.release != b.release {
		return a.release < b.release
	}
	return a.id < b.id
}

// smachine is the per-machine policy state (the engine owns the run state).
type smachine struct {
	pending []pitem // density order

	victimW float64 // v_k, accumulated dispatched weight

	// remTimeAcc accumulates rejection remnant times q_k/s_k (lazy C̃
	// bookkeeping, cf. internal/core/flowtime).
	remTimeAcc float64
}

func (m *smachine) insert(it pitem) {
	k := sort.Search(len(m.pending), func(x int) bool { return !pless(m.pending[x], it) })
	m.pending = append(m.pending, pitem{})
	copy(m.pending[k+1:], m.pending[k:])
	m.pending[k] = it
}

// spolicy implements engine.Policy with the §3 rules.
type spolicy struct {
	c     *engine.Core
	opt   Options
	alpha float64
	gamma float64
	res   *Result
	mach  []smachine
	// snap holds per-job dispatch-time snapshots of the machine remnant
	// accumulator, indexed by compact job index. Like the accumulators it
	// snapshots, it only exists under TrackDual: its sole consumers are the
	// dual report's definitive-finish times.
	snap   []float64
	pool   *dispatch.Pool
	curJob *sched.Job        // job under dispatch, read by the argmin eval
	curIdx int               // compact index of curJob
	evalFn func(int) float64 // evalCur bound once per run (a method value allocates)
	dual   *DualReport
	slab   execSlab // execRecord storage behind dual
}

func newPolicy(opt Options, alpha, gamma float64, machines, hint int) *spolicy {
	p := &spolicy{opt: opt, alpha: alpha, gamma: gamma}
	p.res = &Result{Gamma: gamma, Alpha: alpha}
	if opt.TrackDual {
		p.snap = make([]float64, 0, hint)
		p.dual = newDualReport(opt.Epsilon, alpha, gamma, hint)
		p.slab = make(execSlab, 0, hint)
	}
	p.mach = make([]smachine, machines)
	p.pool = dispatch.NewPool(opt.ParallelDispatch, machines)
	p.evalFn = p.evalCur
	return p
}

func (p *spolicy) Bind(c *engine.Core) { p.c = c }

func (p *spolicy) Close() { p.pool.Close() }

func (p *spolicy) Audit() error {
	for i := range p.mach {
		if len(p.mach[i].pending) != 0 {
			return fmt.Errorf("speedscale: internal invariant violated: machine %d still has pending jobs at end of run", i)
		}
	}
	return nil
}

// lambdaFor evaluates λ_ij for a hypothetical dispatch of job jk to machine
// i. One backwards pass accumulates the suffix weights W_ℓ = Σ_{ℓ'⪰ℓ} w_ℓ'.
// Read-only, safe for concurrent machine shards.
func (p *spolicy) lambdaFor(j *sched.Job, jk, i int) float64 {
	m := &p.mach[i]
	pp, w := j.Proc[i], j.Weight
	it := pitem{id: jk, w: w, p: pp, density: w / pp, release: j.Release}

	// Suffix pass over pending ∪ {j} in reverse density order.
	var sumAfterW float64   // Σ_{ℓ≻j} w_ℓ
	var sumPrefTime float64 // Σ_{ℓ⪯j} p_iℓ/(γ W_ℓ^{1/α})
	var wj float64          // W_j
	suffix := 0.0           // running suffix weight
	placedSelf := false     // j handled
	handle := func(e pitem) {
		suffix += e.w
		if e.id == jk {
			wj = suffix
			sumPrefTime += e.p / (p.gamma * math.Pow(suffix, 1/p.alpha))
			placedSelf = true
		} else if placedSelf {
			// e precedes j (we iterate in reverse order)
			sumPrefTime += e.p / (p.gamma * math.Pow(suffix, 1/p.alpha))
		} else {
			sumAfterW += e.w
		}
	}
	// reverse iteration with j merged in
	k := len(m.pending) - 1
	for k >= 0 && pless(it, m.pending[k]) {
		handle(m.pending[k])
		k--
	}
	handle(it)
	for ; k >= 0; k-- {
		handle(m.pending[k])
	}
	return w*(pp/p.opt.Epsilon+sumPrefTime) + sumAfterW*pp/(p.gamma*math.Pow(wj, 1/p.alpha))
}

// evalCur adapts lambdaFor to the dispatch pool's eval signature for the job
// stashed in curJob; bound once per run as evalFn, since evaluating a
// method value allocates.
func (p *spolicy) evalCur(i int) float64 { return p.lambdaFor(p.curJob, p.curIdx, i) }

func (p *spolicy) OnArrival(t float64, jk int) {
	j := p.c.Job(jk)
	p.curJob, p.curIdx = j, jk
	best, bestLambda := p.pool.ArgMin(p.evalFn)
	m := &p.mach[best]
	p.c.Assign(jk, best)
	if p.dual != nil {
		// Grow to cover jk rather than appending: releases may decrease
		// within sched.Eps, so the arrival pop order can locally differ
		// from the feed order that assigned jk.
		for len(p.snap) <= jk {
			p.snap = append(p.snap, 0)
		}
		p.snap[jk] = m.remTimeAcc
		p.dual.noteDispatch(p.slab.alloc(), j, best, p.opt.Epsilon/(1+p.opt.Epsilon)*bestLambda)
	}
	m.insert(pitem{id: jk, w: j.Weight, p: j.Proc[best], density: j.Weight / j.Proc[best], release: j.Release})

	ms := p.c.Machine(best)
	if !ms.Idle() {
		m.victimW += j.Weight
		if m.victimW > p.c.Job(int(ms.Running)).Weight/p.opt.Epsilon {
			p.rejectRunning(best, t)
		}
	}
	if p.c.Machine(best).Idle() {
		p.startNext(best, t)
	}
}

func (p *spolicy) rejectRunning(i int, t float64) {
	m := &p.mach[i]
	ms := p.c.Machine(i)
	start, speed := ms.RunStart, ms.RunSpeed
	k, q := p.c.RejectRunning(i, t)
	id := p.c.ID(k)
	p.res.Rejections++
	p.res.RejectedWeight += p.c.Job(k).Weight
	if p.dual != nil {
		m.remTimeAcc += q / speed
		p.dual.noteFinish(id, i, start, speed, t, q, t+(m.remTimeAcc-p.snap[k]))
	}
	m.victimW = 0
}

func (p *spolicy) startNext(i int, t float64) {
	m := &p.mach[i]
	if len(m.pending) == 0 {
		return
	}
	it := m.pending[0]
	m.pending = m.pending[1:]
	totalW := it.w
	for _, e := range m.pending {
		totalW += e.w
	}
	speed := p.gamma * math.Pow(totalW, 1/p.alpha)
	m.victimW = 0
	p.c.Start(i, t, it.id, it.p, speed)
}

func (p *spolicy) OnCompletion(t float64, i, jk int) {
	if p.dual != nil {
		ms := p.c.Machine(i)
		p.dual.noteFinish(p.c.ID(jk), i, ms.RunStart, ms.RunSpeed, t, 0,
			t+(p.mach[i].remTimeAcc-p.snap[jk]))
	}
	p.mach[i].victimW = 0
}

func (p *spolicy) OnIdle(t float64, i int) { p.startNext(i, t) }

func (p *spolicy) OnBookkeeping(t float64, i, jk int) {}
