package engine

import (
	"repro/internal/obs"
)

// Telemetry is the engine's instrumentation surface: a bundle of
// metric pointers recorded from the event loop. Every field may be nil
// (each obs method is nil-receiver safe), so a zero Telemetry is the
// disabled mode and costs one predictable branch per site. Counters
// may be shared across sessions — a sharded fleet feeds one fleet-wide
// total — while gauges are typically per-shard.
type Telemetry struct {
	// Events counts events handled by the core, arrivals included.
	Events *obs.Counter
	// Fed counts jobs admitted by Feed/FeedBatch.
	Fed *obs.Counter
	// Completed counts non-stale completion events.
	Completed *obs.Counter
	// Rejected counts RejectRunning + RejectPending decisions.
	Rejected *obs.Counter
	// Depth tracks the event backlog after each drain: queued events and
	// pending arrivals.
	Depth *obs.Gauge
	// DrainNS is the wall time of each drain call (ns). Non-nil DrainNS
	// switches Session.drain onto its timed path; on the batched feed
	// path one drain covers feedChunk jobs, so the pair of time.Now
	// calls amortizes to a few ns per job.
	DrainNS *obs.Histogram
}

// NewTelemetry builds the engine metric bundle on r: fleet-wide
// counters (get-or-create, shared across shards) plus a per-shard
// depth gauge when shard is non-empty. A nil registry returns the
// zero (disabled) Telemetry.
func NewTelemetry(r *obs.Registry, shard string) Telemetry {
	if r == nil {
		return Telemetry{}
	}
	t := Telemetry{
		Events:    r.Counter("engine_events_total"),
		Fed:       r.Counter("engine_jobs_fed_total"),
		Completed: r.Counter("engine_jobs_completed_total"),
		Rejected:  r.Counter("engine_jobs_rejected_total"),
		DrainNS:   r.Histogram("engine_drain_ns"),
	}
	if shard != "" {
		t.Depth = r.Gauge(obs.Label("engine_eventq_depth", "shard", shard))
	} else {
		t.Depth = r.Gauge("engine_eventq_depth")
	}
	return t
}

// SetTelemetry attaches (or replaces) the session's metric bundle. It
// is outcome-neutral — telemetry never changes a scheduling decision.
// Call it between construction and the first Feed; it must not race a
// concurrently draining session.
func (s *Session) SetTelemetry(t Telemetry) { s.core.tel = t }
