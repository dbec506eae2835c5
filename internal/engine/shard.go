package engine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// Feeder consumes a stream of jobs in release order. engine.Session and the
// scheduler sessions of internal/core (flowtime, wflow, speedscale, srpt)
// all implement it.
type Feeder interface {
	Feed(j sched.Job) error
}

// BatchFeeder is a Feeder that can ingest a release-ordered batch of jobs in
// one call, amortizing per-job overhead. engine.Session and the scheduler
// sessions of internal/core all implement it; FeedBatch must be observably
// identical to feeding the batch one Feed call at a time.
type BatchFeeder interface {
	Feeder
	FeedBatch(jobs []sched.Job) error
}

// RouteFunc picks the shard in [0, shards) for a job. Routes must be pure:
// the same job always lands on the same shard, so each shard observes a
// release-ordered subsequence of the stream.
type RouteFunc func(j *sched.Job, shards int) int

// RouteByID is the default route: jobs hash to shards by external id, so a
// job's placement is stable across runs and shard counts are load-balanced
// for dense id spaces.
func RouteByID(j *sched.Job, shards int) int {
	return ((j.ID % shards) + shards) % shards
}

// TenantFunc extracts the tenant key of a job. sched.Job carries no tenant
// field — multi-tenant deployments encode the tenant in the id space (e.g.
// high bits) or close over an external id→tenant table.
type TenantFunc func(j *sched.Job) int

// RouteByTenant builds a tenant-affine route: every job of a tenant lands on
// the same shard, so one tenant's burst can never reorder or starve another
// tenant's shard, and per-shard outcomes aggregate into per-tenant-group
// views (see sched.MergeMetrics). Tenant keys are mixed through a 64-bit
// finalizer before the modulo so consecutive tenant ids spread across shards
// instead of striping.
func RouteByTenant(tenant TenantFunc) RouteFunc {
	return func(j *sched.Job, shards int) int {
		h := uint64(tenant(j))
		// splitmix64 finalizer: full-avalanche mix of the tenant key.
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		return int(h % uint64(shards))
	}
}

// PerShardHint splits a stream-level job-count hint (e.g. the "jobs" field
// of an NDJSON trace header) into the per-shard session size hint for a
// load-balanced route: the expected share plus three standard deviations of
// binomial routing imbalance, so a hinted session almost never regrows its
// per-job storage mid-stream. A non-positive total means the stream length
// is unknown and stays unknown (0). Like every size hint, the result is
// advisory and never changes outcomes.
func PerShardHint(total, shards int) int {
	if total <= 0 || shards <= 0 {
		return 0
	}
	if shards == 1 {
		return total
	}
	mean := float64(total) / float64(shards)
	return int(mean+3*math.Sqrt(mean)) + 1
}

// ShardOptions configures the fan-out.
type ShardOptions struct {
	// Route picks the shard for each job; nil selects RouteByID.
	Route RouteFunc
}

// The slab geometry is fixed: each lane circulates slabCount slabs of
// slabJobs jobs. At 256 jobs a slab the channel handoff and worker wakeup
// amortize to nothing against ~0.5 µs of scheduling per job, and 4 slabs let
// the producer run a full slab ahead of a worker that is one slab behind.
// Every served and measured path ran these values; the per-job handoff they
// replaced was 1.2× slower with bit-identical outcomes (DESIGN.md, "Negative
// results").
const (
	slabJobs  = 256
	slabCount = 4
)

// shardLane is the per-shard half of the fan-out: a work channel of filled
// slabs, a free channel recycling drained ones, and the producer-side slab
// being filled. The worker owns err until Wait's join. fed counts jobs the
// producer routed here (producer-side, unsynchronized); drained counts jobs
// the worker has handed to the session (atomic, so the producer can read a
// live depth signal without a barrier).
type shardLane struct {
	work    chan []sched.Job
	free    chan []sched.Job
	pending []sched.Job
	err     error
	fed     int
	drained atomic.Int64
}

// Shard fans a job stream out to K independent sessions, each drained by its
// own goroutine — the scale-out unit of the engine: one session per shard of
// machines, jobs partitioned by a stable route. Jobs move in slabs: the
// producer fills a per-shard slab and hands it over in one channel operation
// when it fills (or at Quiesce/Wait), while the worker drains a previously
// filled slab into its session via one FeedBatch call, so there is one
// channel handoff and one goroutine wakeup per slab rather than per job.
// Drained slabs recycle through the free channel, so the steady state
// allocates nothing.
//
// Feed never blocks on scheduling work, only on all of a shard's slabs being
// in flight; Wait flushes, joins the workers and reports the first feed
// error. The caller closes the individual sessions afterwards and merges
// their outcomes (sched.MergeMetrics aggregates per-shard metrics).
//
// Feed, FeedBatch, Quiesce and Wait must be called from a single producer
// goroutine.
type Shard struct {
	lanes    []shardLane
	feeders  []Feeder
	route    RouteFunc
	slabJobs int
	slabs    int
	wg       sync.WaitGroup
	done     bool
	// routed is the job Feed hands the route func: passing the address of
	// Feed's own parameter to a func value would move every job to the heap.
	routed sched.Job
	// snaps are the per-session capture buffers of AppendSnapshot, kept
	// for the shard's lifetime so a periodic checkpoint encodes into
	// storage it already owns.
	snaps [][]byte
}

// NewShardOpts starts one worker per feeder. Feeders that implement
// BatchFeeder (all session types in this repository) ingest each slab in one
// FeedBatch call; plain Feeders get the slab replayed job by job.
func NewShardOpts(feeders []Feeder, opt ShardOptions) *Shard {
	return newShard(feeders, opt.Route, slabJobs, slabCount)
}

// newShard is NewShardOpts with the slab geometry as arguments, so in-package
// tests can force slab boundaries, full lanes and single-slab serialization
// on small inputs.
func newShard(feeders []Feeder, route RouteFunc, slabJobs, slabs int) *Shard {
	if route == nil {
		route = RouteByID
	}
	sh := &Shard{
		lanes:    make([]shardLane, len(feeders)),
		feeders:  append([]Feeder(nil), feeders...),
		route:    route,
		slabJobs: slabJobs,
		slabs:    slabs,
	}
	for k := range feeders {
		ln := &sh.lanes[k]
		ln.work = make(chan []sched.Job, slabs)
		ln.free = make(chan []sched.Job, slabs)
		for s := 0; s < slabs; s++ {
			ln.free <- make([]sched.Job, 0, slabJobs)
		}
		sh.wg.Add(1)
		go func(ln *shardLane, f Feeder) {
			defer sh.wg.Done()
			bf, batched := f.(BatchFeeder)
			for slab := range ln.work {
				if ln.err == nil {
					// Past the first error order is broken; keep draining so
					// the producer never wedges on a full lane.
					if batched {
						ln.err = bf.FeedBatch(slab)
					} else {
						for i := range slab {
							if ln.err = f.Feed(slab[i]); ln.err != nil {
								break
							}
						}
					}
				}
				// The slab has left the buffer whether or not every job was
				// admitted: Depth measures buffering, not admission.
				ln.drained.Add(int64(len(slab)))
				ln.free <- slab[:0]
			}
		}(ln, feeders[k])
	}
	return sh
}

// Feed routes the job to its shard's pending slab. Like the sessions
// underneath, jobs must arrive in non-decreasing release order.
func (sh *Shard) Feed(j sched.Job) error {
	if sh.done {
		return ErrClosed
	}
	if len(sh.lanes) == 0 {
		return fmt.Errorf("engine: shard has no feeders")
	}
	sh.routed = j
	k := sh.route(&sh.routed, len(sh.lanes))
	if k < 0 || k >= len(sh.lanes) {
		return fmt.Errorf("engine: route returned shard %d of %d", k, len(sh.lanes))
	}
	ln := &sh.lanes[k]
	if ln.pending == nil {
		ln.pending = <-ln.free
	}
	ln.pending = append(ln.pending, j)
	ln.fed++
	if len(ln.pending) >= sh.slabJobs {
		ln.work <- ln.pending
		ln.pending = nil
	}
	return nil
}

// FeedBatch routes a release-ordered batch of jobs. It is exactly a Feed
// loop — slabs keep filling across batch boundaries, so small producer
// batches still coalesce into full slabs.
func (sh *Shard) FeedBatch(jobs []sched.Job) error {
	for k := range jobs {
		if err := sh.Feed(jobs[k]); err != nil {
			return err
		}
	}
	return nil
}

// flush hands every non-empty pending slab to its worker.
func (sh *Shard) flush() {
	for k := range sh.lanes {
		ln := &sh.lanes[k]
		if len(ln.pending) > 0 {
			ln.work <- ln.pending
			ln.pending = nil
		}
	}
}

// Depth reports, per shard, the number of jobs admitted by Feed but not yet
// drained into the shard's session — producer-side slab contents plus slabs
// in flight to (or inside) the worker. It is the fleet-level queue-depth
// signal of the ROADMAP's backpressure item: a producer can throttle, spill
// or pre-reject when a lane's depth grows. Call it from the producer
// goroutine (the worker side is read atomically, so the signal is fresh
// within one slab).
//
// Depth measures ingestion buffering only; jobs already inside a session but
// not yet completed are reported by that session's own Pending method.
func (sh *Shard) Depth() []int {
	out := make([]int, len(sh.lanes))
	for k := range sh.lanes {
		ln := &sh.lanes[k]
		out[k] = ln.fed - int(ln.drained.Load())
	}
	return out
}

// DepthTotal reports the total ingestion backlog across all lanes — the sum
// of Depth without the per-lane slice. It is the allocation-free form an
// admission controller polls once per admitted job: the producer-side
// counters are plain reads (producer goroutine only) and the drained side is
// atomic, so the signal is fresh within one slab.
func (sh *Shard) DepthTotal() int {
	total := 0
	for k := range sh.lanes {
		ln := &sh.lanes[k]
		total += ln.fed - int(ln.drained.Load())
	}
	return total
}

// Quiesce flushes every pending slab and blocks until all shard workers have
// drained their queues, then returns the first worker error (nil when every
// job so far was admitted). On return the underlying sessions are idle and
// safe to inspect — or snapshot — from the caller's goroutine; the shard
// stays open and feeding may resume afterwards.
//
// The barrier works by reclamation: the producer collects every slab of each
// lane from the free channel. A worker returns a slab only after fully
// ingesting it, so holding all of a lane's slabs proves the worker is parked
// on an empty work queue.
func (sh *Shard) Quiesce() error {
	if sh.done {
		return ErrClosed
	}
	sh.flush()
	for k := range sh.lanes {
		ln := &sh.lanes[k]
		held := make([][]sched.Job, 0, sh.slabs)
		for len(held) < sh.slabs {
			held = append(held, <-ln.free)
		}
		for _, slab := range held {
			ln.free <- slab
		}
	}
	for k := range sh.lanes {
		if err := sh.lanes[k].err; err != nil {
			return err
		}
	}
	return nil
}

// Wait closes the stream: pending slabs flush, the shard workers join, and
// the first feed error (nil when every job was admitted) is returned. The
// underlying sessions remain open: close them to finish their runs and
// collect outcomes.
func (sh *Shard) Wait() error {
	if sh.done {
		return ErrClosed
	}
	sh.done = true
	sh.flush()
	for k := range sh.lanes {
		close(sh.lanes[k].work)
	}
	sh.wg.Wait()
	for k := range sh.lanes {
		if err := sh.lanes[k].err; err != nil {
			return err
		}
	}
	return nil
}
