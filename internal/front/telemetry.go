package front

import (
	"log"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/obs"
)

// serverObs is the front door's metric bundle, built once in build()
// when Config.Obs is set; a nil *serverObs disables every site behind
// one predictable branch. The sequencer's always-on verdict counters
// (Server.fedN etc.) are obs.Counters registered directly, so Stats()
// and /metrics read the same numbers.
//
// Lock order: the registry lock nests inside nothing here — gauges are
// plain atomics, safe to set under Server.mu — but GaugeFunc callbacks
// run under the registry lock, so they must read only atomics (never
// Server.mu). Per-tenant gauges are therefore created in OpenStream
// before Server.mu is taken.
type serverObs struct {
	// decideNS times process(): dedupe through ack (plus the throttle
	// delay and any piggybacked checkpoint — the full per-job occupancy
	// of the sequencer).
	decideNS *obs.Histogram
	// popWaitNS times the merge wait: lock acquisition until a head is
	// popped. Under saturation it collapses toward lock-only cost;
	// when the sequencer is starved it measures producer lag.
	popWaitNS *obs.Histogram
	// ackNS times verdict delivery into the stream's ack channel.
	ackNS *obs.Histogram
	// ckptNS/ckptBytes time and size each checkpoint write; ckptCaptureNS
	// and ckptPersistNS split ckptNS into its two halves: capture (fleet
	// quiesce plus encode, on the sequencer) and persist (Lineage.Write:
	// delta encode, self-check, write and fsync).
	ckptNS        *obs.Histogram
	ckptCaptureNS *obs.Histogram
	ckptPersistNS *obs.Histogram
	ckptBytes     *obs.Histogram
	// resizeNS times each completed fleet resize.
	resizeNS *obs.Histogram
	// busyNS accumulates sequencer occupancy (process() wall time).
	// The busy-fraction gauge divides it by wall time since start —
	// the ROADMAP's saturation signal: at 1.0 the single-threaded
	// sequencer is the wall.
	busyNS *obs.Counter
	// depth mirrors the admission depth sample (fleet + queued).
	depth *obs.Gauge
	// deltaRatio is delta-checkpoint size over full payload size for
	// the most recent delta (1 would mean deltas save nothing).
	deltaRatio *obs.Gauge

	start time.Time
}

// newServerObs registers the front-door metrics on r and returns the
// bundle. It also registers the server's always-on verdict counters,
// attaches admission telemetry, and the busy-fraction gauge.
func newServerObs(r *obs.Registry, s *Server) *serverObs {
	o := &serverObs{
		decideNS:      r.Histogram("front_decide_ns"),
		popWaitNS:     r.Histogram("front_merge_pop_wait_ns"),
		ackNS:         r.Histogram("front_ack_ns"),
		ckptNS:        r.Histogram("front_checkpoint_ns"),
		ckptCaptureNS: r.Histogram("front_checkpoint_capture_ns"),
		ckptPersistNS: r.Histogram("front_checkpoint_persist_ns"),
		ckptBytes:     r.Histogram("front_checkpoint_bytes"),
		resizeNS:      r.Histogram("front_resize_ns"),
		busyNS:        r.Counter("front_sequencer_busy_ns_total"),
		depth:         r.Gauge("front_depth"),
		deltaRatio:    r.Gauge("front_checkpoint_delta_ratio"),
		start:         time.Now(),
	}
	r.RegisterCounter("front_fed_total", &s.fedN)
	r.RegisterCounter("front_prerejected_total", &s.preRejN)
	r.RegisterCounter("front_dup_total", &s.dupN)
	r.RegisterCounter("front_restamped_total", &s.restampN)
	r.RegisterCounter("front_ack_overflow_total", &s.overflowN)
	r.RegisterCounter("front_checkpoints_total", &s.ckptN)
	r.RegisterCounter("front_checkpoint_errors_total", &s.ckptErrN)
	r.RegisterCounter("front_resizes_total", &s.resizeN)
	busy := o.busyNS
	start := o.start
	r.GaugeFunc("front_sequencer_busy_fraction", func() float64 {
		wall := time.Since(start)
		if wall <= 0 {
			return 0
		}
		return float64(busy.Value()) / float64(wall)
	})
	return o
}

// shardTelemetry builds the engine bundle for shard k on the server's
// registry (the zero bundle when telemetry is off). Counters are
// fleet-wide; the depth gauge is per shard.
func (s *Server) shardTelemetry(k int) engine.Telemetry {
	return engine.NewTelemetry(s.cfg.Obs, strconv.Itoa(k))
}

// Progress logs a status line through lg every interval — fed and shed
// totals, admission depth, engine events per second, sequencer busy fraction,
// admission state — until the returned stop is called, which logs one last
// line (so a run shorter than the interval still leaves one) and returns once
// it has landed. It reads only atomics, never the sequencer's state. Depth,
// events and busy come from Config.Obs and read 0 without it.
func (s *Server) Progress(lg *log.Logger, every time.Duration) (stop func()) {
	reg := s.cfg.Obs
	events, busy, depth := reg.Counter("engine_events_total"), reg.Counter("front_sequencer_busy_ns_total"), reg.Gauge("front_depth")
	lastEvents, lastBusy, last := int64(0), int64(0), time.Now()
	emit := func(now time.Time) {
		wall := max(now.Sub(last), time.Nanosecond)
		ev, bz := events.Value(), busy.Value()
		lg.Printf("progress fed=%d shed=%d depth=%d events/s=%.0f busy=%.2f state=%s",
			s.fedN.Value(), s.preRejN.Value(), int64(depth.Value()),
			float64(ev-lastEvents)/wall.Seconds(), float64(bz-lastBusy)/float64(wall),
			admission.State(s.lastState.Load()))
		lastEvents, lastBusy, last = ev, bz, now
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				emit(time.Now())
				return
			case now := <-tick.C:
				emit(now)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// sendAck delivers one verdict, timing it when telemetry is on. The
// ack path is normally a non-blocking channel send; a slow consumer
// shows up here as AckTimeout-scale samples before its stream is
// killed.
func (s *Server) sendAck(st *Stream, a Ack) {
	if o := s.obs; o != nil {
		t0 := time.Now()
		st.ack(a)
		o.ackNS.Record(float64(time.Since(t0)))
		return
	}
	st.ack(a)
}
