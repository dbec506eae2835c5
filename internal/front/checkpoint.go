package front

import (
	"fmt"
	"io"
	"log"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/snapshot"
)

// Front-door checkpoint layout, one snapshot container (internal/snapshot)
// wrapping the fleet snapshot with the front door's own state:
//
//	FRNT — config echo (policy, machines, shards, ε, α, admission budget
//	       parameters), merge watermark, shard history (count at birth and
//	       after each resize — the live count is its last element)
//	TENS — admission ledgers, sorted by tenant
//	PREJ — pre-rejection ledger (gid, release, weight), in decision order
//	CARR — carried outcome ledger: verdicts of sessions retired by resizes
//	       (their makespan high-water mark, then rows sorted by gid)
//	FLTB — the engine fleet snapshot (Shard.AppendSnapshot), embedded raw
//
// The duplicate-suppression set is NOT serialized: it is exactly the union
// of the fleet's fed jobs (recovered via EachFed), the PREJ ledger and the
// CARR ledger, and rebuilding it from those sources keeps the
// representations from ever disagreeing.
const (
	tagFront   = "FRNT"
	tagTenants = "TENS"
	tagPreRej  = "PREJ"
	tagCarried = "CARR"
	tagFleet   = "FLTB"
)

// appendSnapshot appends the front door's checkpoint container to dst.
// Sequencer-owned state is read directly: this runs on the sequencer
// goroutine (periodic cadence or drain), never concurrently with processing.
// The fleet container is framed in place inside FLTB (Shard.AppendSnapshot
// appends it straight into dst), and each session encodes straight into its
// own region of it: every byte is written once, into dst.
func (s *Server) appendSnapshot(dst []byte) ([]byte, error) {
	sw := snapshot.AppendWriter(dst)
	sw.Section(tagFront, func(e *snapshot.Encoder) {
		e.Str(s.cfg.Policy)
		e.U32(uint32(s.cfg.Machines))
		e.U32(uint32(s.cfg.Shards))
		e.F64(s.cfg.Epsilon)
		e.F64(s.cfg.Alpha)
		e.F64(s.cfg.Admission.Epsilon)
		e.F64(s.cfg.Admission.Burst)
		e.F64(s.watermark)
		e.Int(len(s.shardHist))
		for _, n := range s.shardHist {
			e.Int(n)
		}
	})
	sw.Section(tagTenants, func(e *snapshot.Encoder) {
		tens := s.adm.Tenants()
		e.Int(len(tens))
		for _, t := range tens {
			e.Int(t.ID)
			e.Int(t.Fed)
			e.F64(t.FedWeight)
			e.Int(t.PreRejected)
			e.F64(t.PreRejectedWeight)
			e.F64(t.Budget)
		}
	})
	sw.Section(tagPreRej, func(e *snapshot.Encoder) {
		e.Int(len(s.preRej))
		for _, pr := range s.preRej {
			e.Int(pr.gid)
			e.F64(pr.release)
			e.F64(pr.weight)
		}
	})
	sw.Section(tagCarried, func(e *snapshot.Encoder) {
		e.F64(s.carriedMakespan)
		e.Int(len(s.carried))
		for _, v := range s.carried {
			e.Int(v.gid)
			e.F64(v.release)
			e.F64(v.weight)
			e.F64(v.t)
			e.Bool(v.rejected)
		}
	})
	sw.Nest(tagFleet, s.fleet.AppendSnapshot)
	err := sw.Close()
	return sw.Bytes(), err
}

// Restore rebuilds a front door from a checkpoint written by its periodic
// cadence or final drain. cfg must agree with the donor's scheduling
// identity — policy, machines, scheduler ε/α, and the admission budget
// parameters (ε, burst) that the restored ledgers were earned under; a
// mismatch fails loudly. The shard count is NOT matched against cfg: the
// checkpoint is authoritative (a fleet resized to K′ mid-run must come back
// at K′ no matter what count the restarting process was configured with),
// so cfg.Shards is overwritten with the snapshot's. Watermark knobs, queue
// depths, timeouts and fault injection may differ freely: they shape
// timing, never verdicts.
//
// The restored server resumes exactly at the checkpoint's merge prefix:
// replayed jobs the prefix already decided come back as dup acks, and
// everything after converges to the uninterrupted run's report.
//
// r is read into memory once (snapshot.NewReader), or not at all when it is
// a snapshot.InPlace reader; every nested session restores from a view of
// those bytes, and the restored server keeps no reference to them. Each
// restored session is sized for the larger of its share of cfg.SizeHint and
// the jobs it holds.
func Restore(cfg Config, r io.Reader) (*Server, error) {
	return restore(cfg, r, nil)
}

// restore is Restore onto the lineage the checkpoint was recovered from
// (nil: build opens one at cfg.CheckpointPath, if set).
func restore(cfg Config, r io.Reader, lineage *snapshot.Lineage) (*Server, error) {
	cfg.defaults()
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return nil, err
	}
	// The first section names the writer. "SESS" opens a bare engine session
	// container, what schedsim -stream checkpointed before it drove a Server.
	tag, d, err := sr.Next()
	switch {
	case err == io.EOF:
		return nil, fmt.Errorf("snapshot: want section %q, stream already ended", tagFront)
	case err != nil:
		return nil, err
	case tag == "SESS":
		return nil, fmt.Errorf("front: this is a bare-session checkpoint from an older schedsim -stream, which this build cannot resume; start the run over")
	case tag != tagFront:
		return nil, fmt.Errorf("snapshot: want section %q, found %q", tagFront, tag)
	}
	polName := d.Str()
	machines := int(d.U32())
	shards := int(d.U32())
	eps := d.F64()
	alpha := d.F64()
	admEps := d.F64()
	admBurst := d.F64()
	watermark := d.F64()
	hist := make([]int, 0, 2)
	for n, k := d.Int(), 0; k < n; k++ {
		hist = append(hist, d.Int())
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if len(hist) == 0 || hist[len(hist)-1] != shards {
		d.Failf("shard history %v does not end at the live count %d", hist, shards)
		return nil, d.Err()
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if polName != cfg.Policy || machines != cfg.Machines ||
		eps != cfg.Epsilon || alpha != cfg.Alpha {
		return nil, fmt.Errorf("front: checkpoint taken by %s (m=%d, ε=%v, α=%v), restoring into %s (m=%d, ε=%v, α=%v)",
			polName, machines, eps, alpha,
			cfg.Policy, cfg.Machines, cfg.Epsilon, cfg.Alpha)
	}
	cfg.Shards = shards
	if admEps != cfg.Admission.Epsilon || admBurst != cfg.Admission.Burst {
		return nil, fmt.Errorf("front: checkpoint ledgers earned under admission ε=%v burst=%v, restoring under ε=%v burst=%v",
			admEps, admBurst, cfg.Admission.Epsilon, cfg.Admission.Burst)
	}

	d, err = sr.Section(tagTenants)
	if err != nil {
		return nil, err
	}
	var tenants []admission.Tenant
	for n, k := d.Int(), 0; k < n; k++ {
		t := admission.Tenant{
			ID:                d.Int(),
			Fed:               d.Int(),
			FedWeight:         d.F64(),
			PreRejected:       d.Int(),
			PreRejectedWeight: d.F64(),
			Budget:            d.F64(),
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		if t.ID < 0 || t.ID > maxTenant || t.Fed < 0 || t.PreRejected < 0 {
			d.Failf("tenant ledger %d malformed: %+v", k, t)
			return nil, d.Err()
		}
		if err := admission.BudgetInvariant(cfg.Admission, t, 1e-6); err != nil {
			d.Failf("tenant ledger %d violates its own budget: %v", k, err)
			return nil, d.Err()
		}
		tenants = append(tenants, t)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}

	d, err = sr.Section(tagPreRej)
	if err != nil {
		return nil, err
	}
	var ledger []preReject
	for n, k := d.Int(), 0; k < n; k++ {
		pr := preReject{gid: d.Int(), release: d.F64(), weight: d.F64()}
		if d.Err() != nil {
			return nil, d.Err()
		}
		if pr.gid < 0 || !(pr.weight > 0) {
			d.Failf("pre-rejection %d malformed: gid %d weight %v", k, pr.gid, pr.weight)
			return nil, d.Err()
		}
		ledger = append(ledger, pr)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}

	d, err = sr.Section(tagCarried)
	if err != nil {
		return nil, err
	}
	carriedMakespan := d.F64()
	var carried []verdictRow
	for n, k := d.Int(), 0; k < n; k++ {
		v := verdictRow{gid: d.Int(), release: d.F64(), weight: d.F64(), t: d.F64(), rejected: d.Bool()}
		if d.Err() != nil {
			return nil, d.Err()
		}
		if v.gid < 0 || !(v.weight > 0) || (k > 0 && v.gid <= carried[k-1].gid) {
			d.Failf("carried verdict %d malformed or out of order: gid %d weight %v", k, v.gid, v.weight)
			return nil, d.Err()
		}
		carried = append(carried, v)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}

	d, err = sr.Section(tagFleet)
	if err != nil {
		return nil, err
	}
	fleetBytes := d.Rest()
	if err := d.Done(); err != nil {
		return nil, err
	}
	if err := sr.End(); err != nil {
		return nil, err
	}

	// The header echo above pinned cfg to the donor's policy, m, ε and α.
	sessions := make([]*engine.Session, shards)
	got, err := engine.RestoreFleet(snapshot.InPlace(fleetBytes), func(k int, r io.Reader) (err error) {
		sessions[k], err = openSession(&cfg, engine.PerShardHint(cfg.SizeHint, shards), r)
		return err
	})
	if err != nil {
		return nil, err
	}
	if got != shards {
		return nil, fmt.Errorf("front: checkpoint header declares %d shards, fleet snapshot holds %d", shards, got)
	}

	s, err := build(cfg, sessions, lineage)
	if err != nil {
		return nil, err
	}
	// build rebuilt watermark and dedupe from the live sessions' fed jobs;
	// layer the carried ledger (jobs fed to sessions retired by pre-crash
	// resizes — invisible to EachFed on the live fleet) and the
	// pre-rejection state back on top.
	if watermark > s.watermark {
		s.watermark = watermark
	}
	s.shardHist = hist
	s.carried = carried
	s.carriedMakespan = carriedMakespan
	for _, v := range carried {
		s.markDecided(v.gid)
	}
	s.fedN.Add(int64(len(carried)))
	s.preRej = ledger
	for _, pr := range ledger {
		s.markDecided(pr.gid)
	}
	s.preRejN.Store(int64(len(ledger)))
	for _, t := range tenants {
		s.adm.RestoreTenant(t)
	}
	go s.sequence()
	return s, nil
}

// Open builds a fresh server, or with resume set restores one from the newest
// intact checkpoint of the lineage rooted there, falling back along the chain
// past torn or corrupt members. The fallback and the restored counts are
// logged through lg; with Config.Obs set the lineage_* metrics are seeded, so
// the first scrape already tells how this process came back.
//
// When the server checkpoints into the lineage it resumes from
// (Config.CheckpointPath is resume), it recovers through the lineage it goes
// on writing: the recovered checkpoint is that lineage's delta base, so the
// first checkpoint after a restart is a delta chained to it, unless recovery
// fell back or the generation's deltas are used up.
func Open(cfg Config, resume string, lg *log.Logger) (*Server, error) {
	if resume == "" {
		return New(cfg)
	}
	opt := snapshot.LineageOptions{}
	if cfg.CheckpointPath == resume {
		opt = lineageOptions(cfg)
	}
	l, err := snapshot.OpenLineage(resume, opt)
	if err != nil {
		return nil, err
	}
	payload, info, err := l.Recover()
	if err != nil {
		return nil, err
	}
	if info.FellBack {
		lg.Printf("lineage fell back to seq %d (%d newer checkpoints dropped as corrupt)", info.Seq, info.Dropped)
		cfg.Obs.Counter("lineage_fallbacks_total").Inc()
	}
	cfg.Obs.Counter("lineage_dropped_total").Add(int64(info.Dropped))
	cfg.Obs.Counter("lineage_deltas_applied_total").Add(int64(info.Applied))
	cfg.Obs.Gauge("lineage_recovered_seq").Set(float64(info.Seq))
	if cfg.CheckpointPath != resume {
		l = nil
	}
	s, err := restore(cfg, snapshot.InPlace(payload), l)
	if err != nil {
		return nil, fmt.Errorf("resuming from %s: %w", resume, err)
	}
	lg.Printf("resumed from %s: %d fed, %d pre-rejected", resume, s.fedN.Value(), s.preRejN.Value())
	return s, nil
}
