// Package front is the overload-hardened network front door of the
// scheduling engine: a streaming NDJSON ingestion server that multiplexes
// concurrent tenant connections onto an engine.Shard fleet, with admission
// control (internal/admission), layered backpressure, idempotent duplicate
// handling, durable checkpoints, and a graceful drain that ends in a
// deterministic report.
//
// # Determinism under concurrency
//
// Jobs from many tenants arrive on independent connections with arbitrary
// network timing, yet the scheduler fleet must see one release-ordered
// stream per shard. The front door solves this with a k-way merge: each
// tenant stream buffers parsed jobs in a bounded queue, and a single
// sequencer goroutine repeatedly pops the minimum head under the total order
// (release, tenant, local id) — blocking until every open stream has a head
// or is closed. A merge of per-tenant sorted streams under a total-order
// comparator is unique regardless of arrival timing, so the fed sequence —
// and therefore the final report — is a pure function of the job sets, not
// of the network. Tenant ids are folded into globally unique job ids
// (gid = tenant<<32 | local), and engine.RouteByTenant keys shard routing on
// the tenant bits, keeping each tenant's jobs release-ordered per shard.
//
// One tenant gets at most one live stream (a second connection is refused
// with ErrTenantBusy): per-tenant order then comes from the client, and the
// per-tenant weight gate cannot deadlock the merge.
//
// # Overload behavior
//
// Backpressure layers from the inside out: shard slab limits block the
// sequencer's Feed, the bounded per-stream queues then fill, the parsers
// stop reading, and TCP pushes back to the client. On top of that the
// admission controller watches total depth (engine lanes + sequencer
// queues): Throttle adds a per-job intake delay, Reject sheds jobs at the
// boundary within each tenant's ε-scaled budget — an explicit pre-rejection
// recorded in the final report as an ordinary rejection with zero flow, the
// paper's rejection verb applied before dispatch. Slow ack consumers are
// killed (their stream aborts) rather than allowed to wedge the sequencer,
// and the HTTP layer arms a read deadline before every frame.
//
// # Faults and resume
//
// Duplicate job ids are acknowledged as dups and never re-fed, which makes
// whole-stream replay (the chaos client's retry strategy) idempotent. A job
// arriving with a release below the merge watermark — possible only on a
// mid-run reconnect — is restamped to the watermark, preserving the
// engine's release-order invariant. Checkpoints (members of a
// snapshot.Lineage, each landed by tmp+fsync+rename) embed the fleet
// snapshot plus the front door's own state (admission ledgers,
// pre-rejection ledger, watermark); a server restored from a checkpoint and
// re-fed the same streams converges to the exact report of an uninterrupted
// run.
package front

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// Config parameterizes a Server.
type Config struct {
	Policy   string  // a name registered in internal/policy
	Epsilon  float64 // scheduler rejection parameter ε
	Alpha    float64 // power exponent (speedscale)
	Machines int     // machines per shard session
	Shards   int     // scheduler shard count (default 1)

	Admission admission.Config // overload policy

	QueueDepth    int           // per-stream sequencer queue, jobs (default 256)
	AwaitTenants  int           // merge cold-start barrier: this many live streams before the first pop of each wave (0: none)
	ReadTimeout   time.Duration // deadline of each read on a feed connection (default 30s)
	ThrottleDelay time.Duration // per-job intake delay in the Throttle state (default 1ms, <0 disables)
	AckTimeout    time.Duration // grace window for a full ack channel before the stream is killed (default 250ms, <0 kills instantly)

	SizeHint int // expected total jobs across all streams (split per shard via engine.PerShardHint; 0 grows on demand; never changes outcomes)

	// CheckpointPath roots the checkpoint lineage (snapshot.Lineage: members
	// P.<seq>.full / P.<seq>.delta); "" disables checkpointing.
	CheckpointPath  string
	CheckpointEvery int // fed jobs between periodic checkpoints (0: resize brackets and final drain only)
	// CheckpointDeltas is how many delta checkpoints are written between
	// fulls, so the periodic cadence pays for per-interval churn instead of
	// the whole live state; 0 writes only fulls.
	CheckpointDeltas int
	// CheckpointKeep bounds retention to this many newest full generations;
	// 0 selects 2, the fewest that can still fall back past a corrupt full.
	CheckpointKeep int

	Stall chaos.Stall // fault injection: stall every shard feeder on this schedule

	// CrashAtResize is fault injection for the resize crash windows: the
	// process exits with status 137 (SIGKILL's status) at the named point of
	// the next resize — "pre" (after the pre-resize checkpoint), "mid"
	// (after the fleet swap, before the post-resize checkpoint) or "post"
	// (after the post-resize checkpoint). Empty disables.
	CrashAtResize string

	// Obs, when non-nil, enables full-stack telemetry on this registry:
	// front-door counters/histograms (see telemetry.go), per-shard engine
	// metrics, and the admission controller's gauges. Strictly
	// outcome-neutral — reports and checkpoints are byte-identical with it
	// on or off.
	Obs *obs.Registry
}

// maxTenant and maxLocalID bound the gid packing (gid = tenant<<32 | local).
const (
	maxTenant  = 1<<31 - 1
	maxLocalID = 1<<32 - 1
)

func (c *Config) defaults() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.ThrottleDelay == 0 {
		c.ThrottleDelay = time.Millisecond
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 250 * time.Millisecond
	}
}

// Errors of the stream lifecycle.
var (
	ErrDraining     = errors.New("front: server is draining")
	ErrTenantBusy   = errors.New("front: tenant already has a live stream")
	ErrStreamKilled = errors.New("front: stream killed: ack consumer too slow")
	ErrResizeBusy   = errors.New("front: a resize is already in progress")
)

// resizeReq carries one Resize call to the sequencer goroutine.
type resizeReq struct {
	to   int
	done chan error
}

// Ack is the per-job verdict delivered on a stream's ack channel. St is one
// of chaos.AckOK, chaos.AckRej, chaos.AckDup.
type Ack struct {
	ID int    `json:"id"`
	St string `json:"st"`
}

// preReject is one ledger entry of a job shed at the boundary: enough to
// account it as a zero-flow rejection in the report and to suppress a
// replayed duplicate after a restore.
type preReject struct {
	gid     int
	release float64
	weight  float64
}

// Server is the front door. Construct with New or Restore; serve over HTTP
// via Handler or in process via OpenStream; shut down with Drain.
type Server struct {
	cfg   Config
	route engine.RouteFunc

	mu       sync.Mutex
	cond     *sync.Cond
	streams  []*Stream // open streams, one per tenant, in no particular order
	queued   int       // jobs buffered across all stream queues
	await    int       // sequencer start barrier countdown
	draining bool
	resize   *resizeReq // pending Resize, handed to the sequencer
	report   *Report
	repErr   error
	drained  chan struct{}

	// Sequencer-owned state (single goroutine; read by others only after
	// the drained barrier).
	fleet     *engine.Shard
	sessions  []*engine.Session
	adm       *admission.Controller
	decided   map[int]*idSet // per tenant: local ids of every acked verdict (fed or pre-rejected)
	preRej    []preReject
	watermark float64
	sinceCkpt int
	lineage   *snapshot.Lineage // non-nil when CheckpointPath is set
	ckptBuf   []byte            // the next checkpoint's capture buffer (Lineage.Recycle)

	// Carried outcome ledger: verdicts of sessions retired by a resize.
	// Their sessions are gone by drain time, so release/weight ride along
	// with each row. Kept sorted by gid (checkpoint bytes must be
	// deterministic); buildReport merges it with the live fleet's outcomes.
	carried         []verdictRow
	carriedMakespan float64
	shardHist       []int // shard count at birth and after each resize (appended under mu: HTTP reads it)

	// Live counters for Stats (timing-dependent; never in the report).
	// obs.Counters rather than raw atomics so that, with Config.Obs set,
	// the exact same instances serve /metrics; they count either way.
	fedN      obs.Counter
	preRejN   obs.Counter
	dupN      obs.Counter
	restampN  obs.Counter
	overflowN obs.Counter
	ckptN     obs.Counter
	ckptErrN  obs.Counter
	resizeN   obs.Counter
	lastState atomic.Int32

	// obs is the telemetry bundle (nil = disabled; see telemetry.go).
	obs *serverObs
}

// idSet is one tenant's decided local ids: every id below run, plus the
// out-of-order ones above it in extra. Clients number 0, 1, 2, …, so the
// common case costs a compare and an increment, and extra stays empty.
type idSet struct {
	run   int
	extra map[int]struct{}
}

func (d *idSet) has(id int) bool {
	if id < d.run {
		return true
	}
	_, ok := d.extra[id]
	return ok
}

func (d *idSet) add(id int) {
	if id < d.run {
		return
	}
	if id > d.run {
		if d.extra == nil {
			d.extra = make(map[int]struct{})
		}
		d.extra[id] = struct{}{}
		return
	}
	d.run++
	for len(d.extra) > 0 {
		if _, ok := d.extra[d.run]; !ok {
			return
		}
		delete(d.extra, d.run)
		d.run++
	}
}

// decidedSet returns the tenant's decided-id set, creating it on first use.
func (s *Server) decidedSet(tenant int) *idSet {
	d := s.decided[tenant]
	if d == nil {
		d = &idSet{}
		s.decided[tenant] = d
	}
	return d
}

// markDecided records a gid rebuilt from restored state.
func (s *Server) markDecided(gid int) {
	s.decidedSet(gid >> 32).add(gid & maxLocalID)
}

// verdictRow is one decided job: its identity, the release/weight facts the
// report's flow math needs, the decision time, and which way it went. Rows
// of retired sessions live in Server.carried; live sessions are read in
// place at drain (walkDecided), one row at a time.
type verdictRow struct {
	gid      int
	release  float64
	weight   float64
	t        float64
	rejected bool
}

// New builds a fresh server fleet and starts its sequencer.
func New(cfg Config) (*Server, error) {
	cfg.defaults()
	s, err := build(cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	go s.sequence()
	return s, nil
}

// openSession constructs (restore == nil) or restores one shard's scheduler
// session through the policy registry. Dispatch runs serially inside each
// session: the shard fleet is the parallelism. sizeHint preallocates
// per-job storage for a stream of about that many jobs (0 grows on demand);
// a restored session takes the larger of the hint and the snapshot's job
// count.
func openSession(cfg *Config, sizeHint int, restore io.Reader) (*engine.Session, error) {
	e, ok := policy.Lookup(cfg.Policy)
	if !ok {
		return nil, fmt.Errorf("front: policy %q cannot serve (use %s)", cfg.Policy, policy.Usage())
	}
	p := policy.Params{Epsilon: cfg.Epsilon, Alpha: cfg.Alpha, SizeHint: sizeHint}
	if restore != nil {
		return e.Restore(restore, p)
	}
	return e.New(cfg.Machines, p)
}

// build assembles the server around pre-restored sessions (nil for fresh)
// and the checkpoint lineage it resumed from (nil: open one at
// CheckpointPath when that is set). The caller starts the sequencer once any
// restore-time state is in place.
func build(cfg Config, restored []*engine.Session, lineage *snapshot.Lineage) (*Server, error) {
	adm, err := admission.New(cfg.Admission)
	if err != nil {
		return nil, err
	}
	sessions := restored
	if sessions == nil {
		sessions = make([]*engine.Session, cfg.Shards)
		for k := range sessions {
			sessions[k], err = openSession(&cfg, engine.PerShardHint(cfg.SizeHint, cfg.Shards), nil)
			if err != nil {
				for _, s := range sessions[:k] {
					s.Close()
				}
				return nil, err
			}
		}
	}
	feeders := make([]engine.Feeder, len(sessions))
	for k := range sessions {
		if cfg.Stall.Enabled() {
			feeders[k] = chaos.NewStallFeeder(sessions[k], cfg.Stall)
		} else {
			feeders[k] = sessions[k]
		}
	}
	route := engine.RouteByTenant(func(j *sched.Job) int { return j.ID >> 32 })
	s := &Server{
		cfg:       cfg,
		route:     route,
		await:     cfg.AwaitTenants,
		fleet:     engine.NewShardOpts(feeders, engine.ShardOptions{Route: route}),
		sessions:  sessions,
		adm:       adm,
		decided:   make(map[int]*idSet),
		drained:   make(chan struct{}),
		shardHist: []int{cfg.Shards},
	}
	s.cond = sync.NewCond(&s.mu)
	// Telemetry attaches to every session regardless of origin (fresh or
	// restored).
	for k := range sessions {
		sessions[k].SetTelemetry(s.shardTelemetry(k))
	}
	if cfg.Obs != nil {
		s.obs = newServerObs(cfg.Obs, s)
		adm.SetTelemetry(admission.NewTelemetry(cfg.Obs))
	}
	if cfg.CheckpointPath != "" {
		if lineage == nil {
			if lineage, err = snapshot.OpenLineage(cfg.CheckpointPath, lineageOptions(cfg)); err != nil {
				for _, ps := range sessions {
					ps.Close()
				}
				return nil, err
			}
		}
		s.lineage = lineage
	}
	for _, ps := range sessions {
		ps.EachFed(func(j *sched.Job) {
			s.markDecided(j.ID)
			s.fedN.Add(1)
			if j.Release > s.watermark {
				s.watermark = j.Release
			}
		})
	}
	return s, nil
}

// lineageOptions maps the config's checkpoint knobs onto the lineage's.
func lineageOptions(cfg Config) snapshot.LineageOptions {
	keep := cfg.CheckpointKeep
	if keep <= 0 {
		keep = 2
	}
	return snapshot.LineageOptions{Keep: keep, DeltaEvery: cfg.CheckpointDeltas}
}

// Stream is one tenant's live feed: a bounded job queue into the sequencer
// and an ack channel back out. Push and the ack consumer must run
// concurrently — a consumer that stops draining Acks while jobs flow gets
// the stream killed (ErrStreamKilled), the slow-client defense.
type Stream struct {
	srv     *Server
	tenant  int
	buf     []sched.Job
	head    int
	queuedW float64
	closed  bool // send side closed (CloseSend, Abort, kill, or drain)
	err     error
	acks    chan Ack
	// qGauge tracks this tenant's queued-job backlog (stream lag) when
	// telemetry is on; nil otherwise. Created before Server.mu is ever
	// held (registry lock ordering) and updated under it (atomic set).
	qGauge *obs.Gauge

	// Sequencer-owned: the tenant's decided-id set, looked up on the
	// stream's first verdict, and whether the sequencer killed the stream
	// (later acks of jobs it had already popped are then dropped).
	decided *idSet
	killed  bool
}

// OpenStream registers a live stream for the tenant. One stream per tenant:
// a second open while the first is live returns ErrTenantBusy.
func (s *Server) OpenStream(tenant int) (*Stream, error) {
	if tenant < 0 || tenant > maxTenant {
		return nil, fmt.Errorf("front: tenant %d out of range [0, %d]", tenant, maxTenant)
	}
	// The per-tenant gauge is created before s.mu is taken: registry
	// get-or-create locks the registry, and a concurrent scrape holds the
	// registry lock while sampling GaugeFuncs — never nest s.mu inside it.
	var qg *obs.Gauge
	if s.cfg.Obs != nil {
		qg = s.cfg.Obs.Gauge(obs.Label("front_stream_queued", "tenant", strconv.Itoa(tenant)))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	for _, c := range s.streams {
		if c.tenant == tenant {
			return nil, ErrTenantBusy
		}
	}
	st := &Stream{srv: s, tenant: tenant, acks: make(chan Ack, 2*s.cfg.QueueDepth), qGauge: qg}
	s.streams = append(s.streams, st)
	s.cond.Broadcast()
	return st, nil
}

func (st *Stream) size() int { return len(st.buf) - st.head }

func (st *Stream) peek() *sched.Job { return &st.buf[st.head] }

func (st *Stream) pop() sched.Job {
	j := st.buf[st.head]
	st.buf[st.head] = sched.Job{}
	st.head++
	st.queuedW -= j.Weight
	if st.head == len(st.buf) {
		st.buf, st.head = st.buf[:0], 0
	}
	st.qGauge.Set(float64(st.size()))
	return j
}

// Push queues one job (tenant-local id, normalized weight). It blocks while
// the stream's queue is full or the tenant's queued weight exceeds the
// admission cap — the front door's per-tenant backpressure — and fails once
// the stream is closed, killed, or the server drains.
func (st *Stream) Push(j sched.Job) error {
	return st.PushBatch([]sched.Job{j})
}

// PushBatch is Push on each job in order, stopping at the first error, but
// it takes the lock once per run of jobs that fit and wakes the sequencer
// once per run. The per-job rules are Push's: a job fits while the queue is
// below QueueDepth and the queued weight stays within MaxQueuedWeight, and
// the first job into an empty queue always fits.
func (st *Stream) PushBatch(jobs []sched.Job) error {
	s := st.srv
	capW := s.cfg.Admission.MaxQueuedWeight
	s.mu.Lock()
	defer s.mu.Unlock()
	added := 0 // queued since the last wake-up
	wake := func() {
		if added > 0 {
			st.qGauge.Set(float64(st.size()))
			s.cond.Broadcast()
			added = 0
		}
	}
	defer wake()
	for _, j := range jobs {
		if j.ID < 0 || j.ID > maxLocalID {
			return fmt.Errorf("front: job id %d out of range [0, %d]", j.ID, maxLocalID)
		}
		if j.Weight == 0 {
			j.Weight = 1
		}
		for {
			if st.closed {
				if st.err != nil {
					return st.err
				}
				return ErrDraining
			}
			if st.size() < s.cfg.QueueDepth && (capW <= 0 || st.size() == 0 || st.queuedW+j.Weight <= capW) {
				break
			}
			wake()
			s.cond.Wait()
		}
		st.buf = append(st.buf, j)
		st.queuedW += j.Weight
		s.queued++
		added++
	}
	return nil
}

// CloseSend marks the end of the stream's input; queued jobs still drain and
// the ack channel closes after the last verdict.
func (st *Stream) CloseSend() {
	s := st.srv
	s.mu.Lock()
	st.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Abort closes the stream discarding its queued (unfed, unacked) jobs — the
// path taken when the connection's parse fails or times out. Jobs already
// popped by the sequencer keep their verdicts.
func (st *Stream) Abort() {
	s := st.srv
	s.mu.Lock()
	st.abortLocked(nil)
	s.mu.Unlock()
}

// abortLocked closes the stream, discards its queue, and records err (kept
// nil-last: an earlier error wins).
func (st *Stream) abortLocked(err error) {
	if st.err == nil {
		st.err = err
	}
	st.closed = true
	st.srv.queued -= st.size()
	st.buf, st.head, st.queuedW = nil, 0, 0
	st.qGauge.Set(0)
	st.srv.cond.Broadcast()
}

// Acks returns the verdict channel. It closes after the stream's last job
// is decided (or the stream aborts); read Err afterwards.
func (st *Stream) Acks() <-chan Ack { return st.acks }

// Err reports why the stream ended, valid once Acks has closed: nil for a
// clean end, ErrStreamKilled for a slow ack consumer, ErrDraining when the
// server shut the stream down.
func (st *Stream) Err() error {
	s := st.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	return st.err
}

// ack delivers a verdict without letting one dead consumer wedge the
// sequencer forever. The fast path is a non-blocking send; a full channel
// gets AckTimeout of grace — the sequencer can burst acks (a pre-rejection
// spree feeds nothing between verdicts) far faster than a momentarily
// descheduled consumer drains them, and an instant kill would discard that
// consumer's queued jobs over a scheduling hiccup. Only a consumer that
// stays wedged past the window is ruled dead: its stream aborts, and the
// sequencer's worst-case stall is one window per killed stream — the rest
// of a popped run's acks to a killed stream are dropped unsent.
func (st *Stream) ack(a Ack) {
	if st.killed {
		return
	}
	select {
	case st.acks <- a:
		return
	default:
	}
	if st.srv.cfg.AckTimeout > 0 {
		t := time.NewTimer(st.srv.cfg.AckTimeout)
		defer t.Stop()
		select {
		case st.acks <- a:
			return
		case <-t.C:
		}
	}
	st.srv.overflowN.Add(1)
	st.killed = true
	s := st.srv
	s.mu.Lock()
	st.abortLocked(ErrStreamKilled)
	s.mu.Unlock()
}

// headLess orders two stream heads under the merge's total order:
// (release, tenant). Local ids never tie-break — a tenant has one open
// stream and one tenant's releases arrive pre-sorted. The order is total, so
// the order nextHead scans the streams in cannot change its pick.
func headLess(a, b *Stream) bool {
	ra, rb := a.peek().Release, b.peek().Release
	if ra != rb {
		return ra < rb
	}
	return a.tenant < b.tenant
}

// nextHead returns the stream holding the minimum head, or nil unless every
// open stream has one (an open stream with an empty queue owes a head that
// may sort first).
func (s *Server) nextHead() *Stream {
	var st *Stream
	for _, c := range s.streams {
		if c.size() == 0 {
			if !c.closed {
				return nil
			}
			continue
		}
		if st == nil || headLess(c, st) {
			st = c
		}
	}
	return st
}

// maxRun bounds the jobs the sequencer pops under one lock hold.
const maxRun = 256

// popped is one merged job awaiting its verdict.
type popped struct {
	st *Stream
	j  sched.Job
}

// sequence is the merge loop: one goroutine owns the fleet, the admission
// controller and every piece of verdict state. It pops a run of minimum
// heads under one lock hold, re-checking before every pop that all open
// streams have a head, so the merged order is exactly the one-at-a-time
// order; then it wakes the producers once and rules on the run outside the
// lock. Resizes, reaping and the drain land between runs.
func (s *Server) sequence() {
	run := make([]popped, 0, maxRun)
	for {
		var waitStart time.Time
		if s.obs != nil {
			waitStart = time.Now()
		}
		s.mu.Lock()
		var st *Stream
		for {
			if req := s.resize; req != nil && !s.draining {
				// A resize executes here, between runs: the sequencer
				// owns the fleet, so no job can be in flight past this point
				// and the resize lands at a deterministic spot in the merged
				// order (after every job processed so far, before the next
				// pop). Queued stream heads simply wait.
				s.resize = nil
				s.mu.Unlock()
				req.done <- s.doResize(req.to)
				s.mu.Lock()
				continue
			}
			// Reap streams whose send side closed and queue drained; their
			// ack channels close here, after the last verdict. When the last
			// stream is reaped the merge goes cold, and the start barrier
			// re-arms: the next wave of tenants (a later phase of a
			// multi-phase run, e.g. across a fleet resize) must all connect
			// before the first pop, exactly like the initial wave. Without
			// the re-arm, merge order across a second wave would depend on
			// connection timing — the sequencer would race ahead of late
			// connectors and restamp their early releases nondeterministically.
			s.streams = slices.DeleteFunc(s.streams, func(c *Stream) bool {
				if c.closed && c.size() == 0 {
					close(c.acks)
					return true
				}
				return false
			})
			if len(s.streams) == 0 && !s.draining {
				s.await = s.cfg.AwaitTenants
			}
			if s.draining && len(s.streams) == 0 {
				if req := s.resize; req != nil {
					s.resize = nil
					req.done <- ErrDraining
				}
				s.mu.Unlock()
				s.shutdown()
				return
			}
			if s.await > 0 && !s.draining {
				// Start barrier: merging begins only once the configured
				// number of tenants is connected, so the first pop already
				// sees every head (deterministic multiplexing from job one).
				if len(s.streams) < s.await {
					s.cond.Wait()
					continue
				}
				s.await = 0
			}
			if st = s.nextHead(); st != nil {
				break
			}
			s.cond.Wait()
		}
		for st != nil && len(run) < maxRun {
			run = append(run, popped{st, st.pop()})
			st = s.nextHead()
		}
		s.queued -= len(run)
		queued := s.queued
		s.cond.Broadcast()
		s.mu.Unlock()
		var wait float64
		if s.obs != nil {
			wait = float64(time.Since(waitStart)) / float64(len(run))
		}
		for k := range run {
			// The admission depth counts the run's unruled tail as still
			// queued, as a one-job-per-pop merge would have seen it.
			st, j, queued := run[k].st, run[k].j, queued+len(run)-1-k
			if o := s.obs; o != nil {
				// Merge-pop latency (lock + head wait, one amortized sample
				// per popped job) and sequencer occupancy: busyNS
				// accumulates process() wall time, and the busy-fraction
				// gauge divides it by wall clock — the saturation signal.
				o.popWaitNS.Record(wait)
				t0 := time.Now()
				s.process(st, j, queued)
				d := time.Since(t0)
				o.decideNS.Record(float64(d))
				o.busyNS.Add(int64(d))
				continue
			}
			s.process(st, j, queued)
		}
		clear(run)
		run = run[:0]
	}
}

// process rules on one merged job: dedupe, restamp, admission, feed, ack —
// then the throttle delay and the checkpoint cadence.
func (s *Server) process(st *Stream, j sched.Job, queued int) {
	gid := st.tenant<<32 | j.ID
	if st.decided == nil {
		st.decided = s.decidedSet(st.tenant)
	}
	if st.decided.has(j.ID) {
		s.dupN.Add(1)
		s.sendAck(st, Ack{ID: j.ID, St: chaos.AckDup})
		return
	}
	if j.Release < s.watermark {
		// Only possible on a mid-run reconnect: the merge had already
		// advanced past this release. Restamp to the watermark so the
		// engine's release-order invariant holds.
		j.Release = s.watermark
		s.restampN.Add(1)
	}
	depth := s.fleet.DepthTotal() + queued
	state := s.adm.Observe(depth)
	s.lastState.Store(int32(state))
	if o := s.obs; o != nil {
		o.depth.Set(float64(depth))
	}
	if s.adm.Decide(st.tenant, j.Weight) == admission.PreReject {
		st.decided.add(j.ID)
		s.preRej = append(s.preRej, preReject{gid: gid, release: j.Release, weight: j.Weight})
		s.preRejN.Add(1)
		s.sendAck(st, Ack{ID: j.ID, St: chaos.AckRej})
		return
	}
	local := j.ID
	j.ID = gid
	if err := s.fleet.Feed(j); err != nil {
		// A feed error poisons the lane; surface it on this stream and let
		// the drainer collect the authoritative error from the fleet.
		s.mu.Lock()
		st.abortLocked(fmt.Errorf("front: feeding shard fleet: %w", err))
		s.mu.Unlock()
		return
	}
	st.decided.add(local)
	if j.Release > s.watermark {
		s.watermark = j.Release
	}
	s.fedN.Add(1)
	s.sendAck(st, Ack{ID: local, St: chaos.AckOK})
	if state == admission.Throttle && s.cfg.ThrottleDelay > 0 {
		time.Sleep(s.cfg.ThrottleDelay)
	}
	if s.cfg.CheckpointPath != "" && s.cfg.CheckpointEvery > 0 {
		s.sinceCkpt++
		if s.sinceCkpt >= s.cfg.CheckpointEvery {
			s.sinceCkpt = 0
			if err := s.writeCheckpoint(false); err != nil {
				s.ckptErrN.Add(1)
			} else {
				s.ckptN.Add(1)
			}
		}
	}
}

// Drain shuts the front door down: new streams are refused, live streams
// are aborted (their clients see ErrDraining), the sequencer finishes its
// queue, the fleet quiesces, a final checkpoint is written when configured,
// every session closes, and the deterministic report is assembled. Safe to
// call more than once; every call returns the same report.
func (s *Server) Drain() (*Report, error) {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, c := range s.streams {
			c.abortLocked(ErrDraining)
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	<-s.drained
	return s.report, s.repErr
}

// Resize changes the fleet's shard count mid-stream, crash-safely. The
// request is handed to the sequencer, which executes it between merge pops:
// pre-resize full checkpoint, retire-and-replace fleet swap
// (engine.ResizeFleet — retired sessions close, their outcomes move to the
// carried ledger, fresh sessions open at the new count), post-resize full
// checkpoint. The call blocks until the resize completes and is safe from
// any goroutine.
//
// Resizing to the current shard count is a no-op (idempotent by design: a
// recovery orchestrator can blindly re-issue its resize after a crash —
// if the post-resize checkpoint survived, the re-issue changes nothing).
// Only future jobs feel the new count: completed and running work stays
// attributed to the machines that did it, exactly as the paper's
// sunk-cost argument allows.
func (s *Server) Resize(shards int) error {
	if shards <= 0 || shards > 1<<20 {
		return fmt.Errorf("front: resize to %d shards", shards)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrDraining
	}
	if s.resize != nil {
		s.mu.Unlock()
		return ErrResizeBusy
	}
	if shards == s.cfg.Shards {
		s.mu.Unlock()
		return nil
	}
	req := &resizeReq{to: shards, done: make(chan error, 1)}
	s.resize = req
	s.cond.Broadcast()
	s.mu.Unlock()
	return <-req.done
}

// crashPoint is the resize fault hook: in a chaos run configured with
// CrashAtResize, the process dies here as if SIGKILLed mid-resize.
func (s *Server) crashPoint(point string) {
	if s.cfg.CrashAtResize == point {
		fmt.Fprintf(os.Stderr, "front: fault injection: crashing at resize point %q\n", point)
		os.Exit(137)
	}
}

// doResize runs on the sequencer goroutine. Crash atomicity comes from the
// two full checkpoints bracketing the swap: a kill before the post-resize
// checkpoint lands recovers at the old shard count with the pre-resize
// checkpoint (the orchestrator re-issues the resize — idempotent either
// way); after it, recovery resumes at the new count with the retired
// outcomes in the carried ledger. Nothing in between is ever durable.
func (s *Server) doResize(to int) error {
	if o := s.obs; o != nil {
		t0 := time.Now()
		defer func() { o.resizeNS.Record(float64(time.Since(t0))) }()
	}
	if s.cfg.CheckpointPath != "" {
		if err := s.writeCheckpoint(true); err != nil {
			return fmt.Errorf("front: pre-resize checkpoint: %w", err)
		}
		s.ckptN.Add(1)
	}
	s.crashPoint("pre")

	old := s.sessions
	fresh := make([]*engine.Session, to)
	fleet, err := engine.ResizeFleet(s.fleet, to, engine.ShardOptions{Route: s.route},
		func(k int, _ engine.Feeder) error { return old[k].Finish() },
		func(k int) (engine.Feeder, error) {
			ps, err := openSession(&s.cfg, engine.PerShardHint(s.cfg.SizeHint, to), nil)
			if err != nil {
				return nil, err
			}
			ps.SetTelemetry(s.shardTelemetry(k))
			fresh[k] = ps
			if s.cfg.Stall.Enabled() {
				return chaos.NewStallFeeder(ps, s.cfg.Stall), nil
			}
			return ps, nil
		})
	if err != nil {
		// The old fleet is closed and some sessions may already be retired:
		// the server cannot keep feeding. Surface the error to the caller
		// and poison future feeds by leaving the closed fleet in place.
		return err
	}
	if err := s.carry(old); err != nil {
		return err
	}
	s.sessions = fresh
	s.mu.Lock() // fleet, shard count and history are read by HTTP goroutines
	s.fleet = fleet
	s.cfg.Shards = to
	s.shardHist = append(s.shardHist, to)
	s.mu.Unlock()
	s.crashPoint("mid")

	if s.cfg.CheckpointPath != "" {
		if err := s.writeCheckpoint(true); err != nil {
			return fmt.Errorf("front: post-resize checkpoint: %w", err)
		}
		s.ckptN.Add(1)
	}
	s.crashPoint("post")
	s.resizeN.Add(1)
	return nil
}

// shutdown runs on the sequencer goroutine after the last stream is reaped.
func (s *Server) shutdown() {
	rep, err := s.buildReport()
	s.mu.Lock()
	s.report, s.repErr = rep, err
	s.mu.Unlock()
	close(s.drained)
}

// carry folds the finished sessions a resize retires into the carried
// ledger: their decided jobs merge with its rows by gid, so the ledger stays
// sorted (checkpoint bytes must be deterministic), and their last interval
// end raises its makespan.
func (s *Server) carry(retired []*engine.Session) error {
	n := len(s.carried)
	for _, ps := range retired {
		n += ps.Fed()
		s.carriedMakespan = makespanOf(ps, s.carriedMakespan)
	}
	carried := make([]verdictRow, 0, n)
	err := walkDecided(retired, s.carried, func(v *verdictRow) error {
		carried = append(carried, *v)
		return nil
	})
	if err != nil {
		return err
	}
	s.carried = carried
	return nil
}

// makespanOf returns the later of makespan and the last interval end of a
// finished session.
func makespanOf(ps *engine.Session, makespan float64) float64 {
	for _, iv := range ps.Intervals() {
		makespan = max(makespan, iv.End)
	}
	return makespan
}

// buildReport freezes the fleet (final checkpoint when configured), finishes
// every session, and folds the outcomes and admission ledgers into the
// deterministic report. All floating-point accumulation runs in sorted gid
// order, so the same decided job set always produces the same bytes.
func (s *Server) buildReport() (*Report, error) {
	if s.cfg.CheckpointPath != "" {
		if err := s.writeCheckpoint(true); err != nil {
			return nil, err
		}
		s.ckptN.Add(1)
	} else if err := s.fleet.Quiesce(); err != nil {
		return nil, err
	}
	if err := s.fleet.Wait(); err != nil {
		return nil, err
	}

	makespan := s.carriedMakespan
	for _, ps := range s.sessions {
		if err := ps.Finish(); err != nil {
			return nil, err
		}
		makespan = makespanOf(ps, makespan)
	}
	rep := &Report{
		Policy:           s.cfg.Policy,
		Machines:         s.cfg.Machines,
		Shards:           s.cfg.Shards,
		ShardHistory:     slices.Clone(s.shardHist),
		Epsilon:          s.cfg.Epsilon,
		AdmissionEpsilon: s.cfg.Admission.Epsilon,
		AdmissionBurst:   s.cfg.Admission.Burst,
		Makespan:         makespan,
	}
	tens := make(map[int]*TenantReport)
	order := make([]int, 0, 8)
	for _, t := range s.adm.Tenants() {
		tens[t.ID] = &TenantReport{
			ID:                t.ID,
			Fed:               t.Fed,
			FedWeight:         t.FedWeight,
			PreRejected:       t.PreRejected,
			PreRejectedWeight: t.PreRejectedWeight,
			RejectedWeight:    t.PreRejectedWeight,
		}
		order = append(order, t.ID)
		rep.Fed += t.Fed
		rep.PreRejected += t.PreRejected
		rep.RejectedWeight += t.PreRejectedWeight
	}
	// Live sessions are read in place; sessions retired by a resize already
	// folded theirs into the carried ledger. The union is every decided job
	// exactly once: a gid feeds exactly one session in its lifetime.
	err := walkDecided(s.sessions, s.carried, func(v *verdictRow) error {
		tr := tens[v.gid>>32]
		if tr == nil {
			return fmt.Errorf("front: job %d belongs to tenant %d with no admission ledger", v.gid, v.gid>>32)
		}
		flow := v.t - v.release
		rep.TotalFlow += flow
		rep.WeightedFlow += v.weight * flow
		tr.WeightedFlow += v.weight * flow
		if flow > rep.MaxFlow {
			rep.MaxFlow = flow
		}
		if v.rejected {
			rep.Rejected++
			rep.RejectedWeight += v.weight
			tr.Rejected++
			tr.RejectedWeight += v.weight
		} else {
			rep.Completed++
			tr.Completed++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rep.Completed+rep.Rejected != rep.Fed {
		return nil, fmt.Errorf("front: %d jobs fed but %d completed + %d rejected — the fleet dropped jobs",
			rep.Fed, rep.Completed, rep.Rejected)
	}
	slices.Sort(order)
	rep.Tenants = make([]TenantReport, 0, len(order))
	for _, id := range order {
		rep.Tenants = append(rep.Tenants, *tens[id])
	}
	return rep, nil
}

// writeCheckpoint freezes the whole front door durably: it captures into a
// reusable buffer and hands the bytes to the checkpoint lineage, which
// picks full vs delta, lands the member atomically (a SIGKILL at any instant
// leaves the previous members intact) and rotates old generations.
// forceFull pins the write to a full snapshot (the resize brackets and the
// final drain checkpoint — recovery anchors). With telemetry on, the two
// halves are timed apart: capture (quiesce plus encode) and persist
// (Lineage.Write: delta encode, self-check, write, fsync).
func (s *Server) writeCheckpoint(forceFull bool) error {
	o := s.obs
	var t0, t1 time.Time
	if o != nil {
		t0 = time.Now()
	}
	buf, err := s.appendSnapshot(s.ckptBuf[:0])
	if o != nil {
		t1 = time.Now()
		o.ckptCaptureNS.Record(float64(t1.Sub(t0)))
	}
	if err != nil {
		s.ckptBuf = buf
		if o != nil {
			o.ckptNS.Record(float64(t1.Sub(t0)))
		}
		return fmt.Errorf("front: writing checkpoint: %w", err)
	}
	// With deltas on, a written capture is the lineage's next delta base:
	// the next capture goes into the base it retired (Recycle), never over
	// this one.
	entry, err := s.lineage.Write(buf, forceFull)
	s.ckptBuf = s.lineage.Recycle(buf)
	if o != nil {
		t2 := time.Now()
		o.ckptPersistNS.Record(float64(t2.Sub(t1)))
		o.ckptNS.Record(float64(t2.Sub(t0)))
		if err == nil {
			o.ckptBytes.Record(float64(entry.Size))
			if entry.Kind == "delta" && len(buf) > 0 {
				o.deltaRatio.Set(float64(entry.Size) / float64(len(buf)))
			}
		}
	}
	return err
}

// Stats is the live counter set served by /v1/stats. Everything here is
// timing-dependent (dups, restamps, overflow kills, checkpoint count) or
// instantaneous (state, depth) — none of it appears in the report.
type Stats struct {
	State        string `json:"state"`
	Depth        int    `json:"depth"`
	Queued       int    `json:"queued"`
	Streams      int    `json:"streams"`
	Draining     bool   `json:"draining"`
	Fed          int64  `json:"fed"`
	PreRejected  int64  `json:"pre_rejected"`
	Dup          int64  `json:"dup"`
	Restamped    int64  `json:"restamped"`
	AckOverflows int64  `json:"ack_overflows"`
	Checkpoints  int64  `json:"checkpoints"`
	CkptErrors   int64  `json:"checkpoint_errors"`
	Resizes      int64  `json:"resizes"`
}

// Stats samples the live counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	queued, streams, draining, fleet := s.queued, len(s.streams), s.draining, s.fleet
	s.mu.Unlock()
	return Stats{
		State:        admission.State(s.lastState.Load()).String(),
		Depth:        fleet.DepthTotal() + queued,
		Queued:       queued,
		Streams:      streams,
		Draining:     draining,
		Fed:          s.fedN.Value(),
		PreRejected:  s.preRejN.Value(),
		Dup:          s.dupN.Value(),
		Restamped:    s.restampN.Value(),
		AckOverflows: s.overflowN.Value(),
		Checkpoints:  s.ckptN.Value(),
		CkptErrors:   s.ckptErrN.Value(),
		Resizes:      s.resizeN.Value(),
	}
}

// Report is the deterministic product of a drained server: the merged
// scheduling outcome plus the admission ledgers, sorted by tenant. Two runs
// that decide the same job set produce byte-identical reports — timing
// artifacts (dup acks, restamps, retries, latency) are deliberately
// excluded; they live in Stats.
type Report struct {
	Policy           string  `json:"policy"`
	Machines         int     `json:"machines"`
	Shards           int     `json:"shards"`        // final shard count
	ShardHistory     []int   `json:"shard_history"` // count at birth and after each resize
	Epsilon          float64 `json:"epsilon"`
	AdmissionEpsilon float64 `json:"admission_epsilon"`
	AdmissionBurst   float64 `json:"admission_burst"` // with ε, lets an external auditor re-check the budget invariant

	Fed            int     `json:"fed"`
	PreRejected    int     `json:"pre_rejected"`
	Completed      int     `json:"completed"`
	Rejected       int     `json:"rejected"` // scheduler rejections (pre-rejections counted separately)
	RejectedWeight float64 `json:"rejected_weight"`
	TotalFlow      float64 `json:"total_flow"`
	WeightedFlow   float64 `json:"weighted_flow"`
	MaxFlow        float64 `json:"max_flow"`
	Makespan       float64 `json:"makespan"`

	Tenants []TenantReport `json:"tenants"`
}

// WriteIndented writes the report as indented JSON, the form both commands
// print.
func (r *Report) WriteIndented(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// TenantReport is one tenant's slice of the report.
type TenantReport struct {
	ID                int     `json:"id"`
	Fed               int     `json:"fed"`
	FedWeight         float64 `json:"fed_weight"`
	PreRejected       int     `json:"pre_rejected"`
	PreRejectedWeight float64 `json:"pre_rejected_weight"`
	Completed         int     `json:"completed"`
	Rejected          int     `json:"rejected"`
	RejectedWeight    float64 `json:"rejected_weight"`
	WeightedFlow      float64 `json:"weighted_flow"`
}
