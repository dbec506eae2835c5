package speedscale

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/sched"
)

// lambdaReverse is λ_ij as one backwards pass over pending ∪ {j} computes
// it, re-summing every suffix weight W_ℓ = Σ_{ℓ'⪰ℓ} w_ℓ' from the tail.
// It is the reference the cached-suffix lambdaFor must match bit for bit.
func (p *spolicy) lambdaReverse(j *sched.Job, jk, i int) float64 {
	m := &p.mach[i]
	pp, w := j.Proc[i], j.Weight
	it := pitem{id: jk, w: w, p: pp, density: w / pp, release: j.Release}

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

// checkPowHalf fails unless math.Pow(x, 0.5) and math.Sqrt(x) agree bit for
// bit, the identity root's α = 2 path relies on.
func checkPowHalf(t *testing.T, x float64) {
	t.Helper()
	if a, b := math.Pow(x, 0.5), math.Sqrt(x); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("Pow(%v, 0.5) = %v (%#x), Sqrt = %v (%#x)", x, a, math.Float64bits(a), b, math.Float64bits(b))
	}
}

// TestPowHalfIsSqrt pins the identity on the edges of the positive finite
// range: subnormals, the neighbours of 1, and the largest doubles.
func TestPowHalfIsSqrt(t *testing.T) {
	for _, x := range []float64{
		math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023,
		math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 2, 3, 0.1, 1e300,
		math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0),
	} {
		checkPowHalf(t, x)
	}
	r := rand.New(rand.NewPCG(1, 2))
	for k := 0; k < 100000; k++ {
		if x := math.Float64frombits(r.Uint64() &^ (1 << 63)); x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) {
			checkPowHalf(t, x)
		}
	}
}

// FuzzSpeedscaleLambda drives one machine's pending list through a random
// sequence of arrivals (insert), head pops (startNext) and restore-style
// rebuilds (LoadState re-deriving every entry, the cached suffix weight from
// scratch), and after each step checks that every cached suffix weight
// equals a fresh tail-to-head re-sum and that lambdaFor equals the reverse
// pass, by math.Float64bits, for a random probe job at α = 1.5, 2 and 3.
// x feeds the Pow(x, 0.5) ≡ Sqrt(x) pin.
func FuzzSpeedscaleLambda(f *testing.F) {
	f.Add(uint64(1), 2.0, []byte{0, 0, 0, 1, 2, 0, 3, 1, 0, 2})
	f.Add(uint64(7), 0.3, []byte{0, 1, 0, 1, 0, 1, 0, 1, 3, 2, 2, 0, 0})
	f.Add(uint64(42), 1e-300, []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 2, 1})
	f.Fuzz(func(t *testing.T, seed uint64, x float64, ops []byte) {
		if x = math.Abs(x); x > 0 && !math.IsInf(x, 0) {
			checkPowHalf(t, x)
		}
		if len(ops) > 512 {
			ops = ops[:512] // keeps an exec in milliseconds; lists still reach hundreds
		}
		r := rand.New(rand.NewPCG(seed, 0))
		// A few discrete weights and sizes make density ties (broken by
		// release, then id) common; continuous ones make every sum round.
		draw := func() float64 {
			if r.IntN(2) == 0 {
				return []float64{0.5, 1, 3, 7}[r.IntN(4)]
			}
			return 0.1 + 9.9*r.Float64()
		}
		var jobs []sched.Job
		release := 0.0
		newJob := func() int {
			release += float64(r.IntN(3))
			jobs = append(jobs, sched.Job{
				ID: len(jobs), Release: release, Weight: draw(), Deadline: sched.NoDeadline,
				Proc: []float64{draw()},
			})
			return len(jobs) - 1
		}

		mach := make([]smachine, 1)
		var pols []*spolicy
		for _, alpha := range []float64{1.5, 2, 3} {
			opt := Options{Epsilon: 0.3, Alpha: alpha, Gamma: DefaultGamma(0.3, alpha)}
			pols = append(pols, &spolicy{opt: opt, alpha: alpha, gamma: opt.Gamma, invAlpha: 1 / alpha, mach: mach})
		}
		m := &mach[0]
		for step, op := range ops {
			switch op % 4 {
			case 0, 1:
				jk := newJob()
				j := &jobs[jk]
				m.insert(pitem{id: jk, w: j.Weight, p: j.Proc[0], density: j.Weight / j.Proc[0], release: j.Release})
			case 2:
				if len(m.pending) > 0 {
					m.pending = m.pending[1:]
				}
			case 3:
				rebuilt := make([]pitem, 0, len(m.pending))
				for _, e := range m.pending {
					j := &jobs[e.id]
					rebuilt = append(rebuilt, pitem{id: e.id, w: j.Weight, p: j.Proc[0], density: j.Weight / j.Proc[0], release: j.Release})
				}
				m.pending = rebuilt
				m.resum(len(m.pending) - 1)
			}

			s := 0.0
			for k := len(m.pending) - 1; k >= 0; k-- {
				s += m.pending[k].w
				if got := m.pending[k].suf; math.Float64bits(got) != math.Float64bits(s) {
					t.Fatalf("step %d: entry %d caches suffix %v, re-sum %v", step, k, got, s)
				}
				checkPowHalf(t, s)
			}

			jk := newJob()
			for _, p := range pols {
				got, want := p.lambdaFor(&jobs[jk], jk, 0), p.lambdaReverse(&jobs[jk], jk, 0)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d, α=%v, %d pending: λ = %v (%#x), reverse pass %v (%#x)",
						step, p.alpha, len(m.pending), got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	})
}
