package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sched"
	"repro/internal/trace"
)

// Streaming, seeded workload generators. A generator holds O(1) state (its
// PRNG, the clock, a burst counter) and yields one job per Next call in
// non-decreasing release order, so a stream of any length is produced
// without materializing an instance. All tenants of a workload draw their
// releases on one simulated clock (same origin, same unit): a tenant's rate
// is its share of the aggregate, which is what lets the open-loop pacer map
// every tenant's releases to wall-clock due times with a single scale.

// sizeDist selects the base processing-time distribution.
type sizeDist int

const (
	sizeUniform sizeDist = iota // uniform on [1, 20]
	sizePareto                  // Pareto(shape 1.5, min 1) capped at 100: heavy tail
)

const (
	uniformMin, uniformMax = 1.0, 20.0
	paretoShape, paretoCap = 1.5, 100.0
	machineSpread          = 4.0  // p_ij = base_j · U[1, spread): unrelated machines
	maxWeight              = 10.0 // weighted jobs draw U[1, 10)
)

// meanSize is E[base] of the distribution, in closed form so a streaming
// generator can turn a load factor into an arrival rate before the first job.
func (d sizeDist) meanSize() float64 {
	if d == sizePareto {
		// E[min(X, C)] for Pareto(x_m=1, a): 1 + (1 − C^(1−a))/(a − 1).
		return 1 + (1-math.Pow(paretoCap, 1-paretoShape))/(paretoShape-1)
	}
	return (uniformMin + uniformMax) / 2
}

// streamSpec describes one tenant's stream.
type streamSpec struct {
	Tenant   int
	N        int // jobs
	Machines int // machines per shard session (length of Proc)
	Sizes    sizeDist
	Burst    int     // ≤ 1: Poisson arrivals; k > 1: bursts of k at Poisson epochs
	Load     float64 // offered load of this stream on Machines unit-speed machines, by base size
	Weighted bool
	Seed     int64
}

// rate is the stream's arrival rate in jobs per simulated time unit.
func (s streamSpec) rate() float64 {
	return s.Load * float64(s.Machines) / s.Sizes.meanSize()
}

// tenantSeed derives a tenant's PRNG seed from the run seed (splitmix64
// finalizer, so neighbouring seeds and tenants give unrelated streams).
func tenantSeed(seed int64, tenant int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(tenant+1)*0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h >> 1)
}

// generator yields the jobs of one streamSpec.
type generator struct {
	spec      streamSpec
	rng       *rand.Rand
	clock     float64
	next      int
	burstLeft int
}

func newGenerator(spec streamSpec) *generator {
	return &generator{spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}
}

// Next fills j with the stream's next job, reusing j.Proc's storage, and
// reports false once the stream is exhausted. Ids are tenant-local and dense.
func (g *generator) Next(j *sched.Job) bool {
	s := &g.spec
	if g.next >= s.N {
		return false
	}
	if s.Burst > 1 {
		if g.burstLeft == 0 {
			g.clock += g.rng.ExpFloat64() / s.rate() * float64(s.Burst)
			g.burstLeft = s.Burst
		}
		g.burstLeft--
	} else {
		g.clock += g.rng.ExpFloat64() / s.rate()
	}
	var base float64
	if s.Sizes == sizePareto {
		base = math.Min(1/math.Pow(1-g.rng.Float64(), 1/paretoShape), paretoCap)
	} else {
		base = uniformMin + g.rng.Float64()*(uniformMax-uniformMin)
	}
	j.ID, j.Release, j.Weight, j.Deadline = g.next, g.clock, 1, sched.NoDeadline
	if s.Weighted {
		j.Weight = 1 + g.rng.Float64()*(maxWeight-1)
	}
	if cap(j.Proc) < s.Machines {
		j.Proc = make([]float64, s.Machines)
	}
	j.Proc = j.Proc[:s.Machines]
	for i := range j.Proc {
		j.Proc[i] = base * (1 + g.rng.Float64()*(machineSpread-1))
	}
	g.next++
	return true
}

// arena is reusable storage for a materialized stream: a repeated set-up
// measures generation, not the kernel handing out fresh pages.
type arena struct {
	jobs []sched.Job
	proc []float64
}

// collect materializes the stream into the arena (each job owns its Proc
// slice); the result is valid until the arena's next collect.
func (a *arena) collect(spec streamSpec) []sched.Job {
	if cap(a.jobs) < spec.N || cap(a.proc) < spec.N*spec.Machines {
		a.jobs, a.proc = make([]sched.Job, 0, spec.N), make([]float64, spec.N*spec.Machines)
	}
	jobs, proc := a.jobs[:0], a.proc[:spec.N*spec.Machines]
	g := newGenerator(spec)
	var j sched.Job
	for g.Next(&j) {
		c := j
		c.Proc, proc = proc[:spec.Machines:spec.Machines], proc[spec.Machines:]
		copy(c.Proc, j.Proc)
		jobs = append(jobs, c)
	}
	return jobs
}

// encoded is one tenant's stream pre-encoded as the NDJSON the wire carries:
// the header line, then one job line each. off[k] is the byte offset of job
// k's line and off[N] the end, so any job range is one slice of buf.
type encoded struct {
	tenant  int
	buf     []byte
	off     []int
	release []float64 // per job, for open-loop pacing
}

func (e *encoded) jobs() int             { return len(e.off) - 1 }
func (e *encoded) header() []byte        { return e.buf[:e.off[0]] }
func (e *encoded) lines(a, b int) []byte { return e.buf[e.off[a]:e.off[b]] }

// encode streams the spec's jobs through trace.NDJSONWriter — the exact
// bytes a tenant would send — holding only the output buffer. recycle, when
// non-nil, donates its storage (a repeated set-up then measures generation
// and encoding, not the kernel handing out fresh pages).
func encode(spec streamSpec, alpha float64, recycle *encoded) (*encoded, error) {
	e := &encoded{tenant: spec.Tenant}
	var out *bytes.Buffer
	if recycle != nil {
		out = bytes.NewBuffer(recycle.buf[:0])
		e.off, e.release = recycle.off[:0], recycle.release[:0]
	} else {
		out = bytes.NewBuffer(make([]byte, 0, spec.N*(64+20*spec.Machines))) // about a line each: no regrowth by copying
		e.off, e.release = make([]int, 0, spec.N+1), make([]float64, 0, spec.N)
	}
	w, err := trace.NewNDJSONWriter(out, spec.Machines, alpha)
	if err != nil {
		return nil, err
	}
	g := newGenerator(spec)
	var j sched.Job
	for g.Next(&j) {
		e.release = append(e.release, j.Release)
		if err := w.Write(&j); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	e.buf = out.Bytes()
	// One '\n' per line: the header's, then each job's.
	for p := 0; p < len(e.buf); {
		nl := bytes.IndexByte(e.buf[p:], '\n')
		if nl < 0 {
			return nil, fmt.Errorf("encode: unterminated NDJSON line at byte %d", p)
		}
		p += nl + 1
		e.off = append(e.off, p)
	}
	if len(e.off) != spec.N+1 {
		return nil, fmt.Errorf("encode: %d lines for %d jobs", len(e.off), spec.N)
	}
	return e, nil
}
