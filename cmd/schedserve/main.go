// Command schedserve is the network front door of the scheduling engine: a
// streaming HTTP server that ingests NDJSON job streams from concurrent
// tenants, multiplexes them deterministically onto an engine.Shard fleet,
// and survives overload and faults by construction (see internal/front).
//
// Usage:
//
//	schedserve -listen :8080 -policy flowtime -eps 0.2 -machines 8 -shards 4
//	schedserve -listen :8080 -throttle-depth 2048 -reject-depth 8192 -adm-eps 0.2
//	schedserve -listen :8080 -checkpoint serve.ck -checkpoint-every 50000
//	schedserve -listen :8080 -checkpoint serve.ck -checkpoint-every 50000 \
//	           -checkpoint-deltas 8 -checkpoint-keep 3   # deltas between fulls
//	schedserve -listen :8080 -resume serve.ck                 # after a crash
//	schedserve -listen :8080 -stall-every 64 -stall-delay 2ms # fault injection
//
// Wire protocol (reference client: internal/chaos.Client, load driver:
// cmd/loadgen):
//
//	POST /v1/feed?tenant=T   NDJSON jobs in, NDJSON acks out (streaming)
//	POST /v1/drain           drain the fleet, respond with the final report
//	POST /v1/resize?shards=K crash-safe fleet resize (see internal/front)
//	GET  /v1/stats           live counters
//	GET  /healthz            readiness
//
// With -debug-addr a second listener serves the observability surface,
// kept off the ingest address so a scrape or profile can never compete
// with feed traffic for the accept queue:
//
//	GET /metrics             Prometheus text exposition (internal/obs)
//	GET /debug/vars          the same registry as expvar-style JSON
//	GET /debug/pprof/...     net/http/pprof (profile, heap, trace, ...)
//
// -checkpoint P roots a checkpoint lineage at P (members P.N.full /
// P.N.delta plus the manifest P.lineage; see internal/snapshot): every
// checkpoint is a full unless -checkpoint-deltas allows deltas between
// fulls, and the newest -checkpoint-keep full generations are retained.
// -resume P recovers the newest intact checkpoint of that lineage, falling
// back along the chain past torn or bit-flipped members.
//
// SIGTERM or SIGINT drains gracefully: live streams are refused and aborted,
// queued jobs get their verdicts, the fleet quiesces, a final checkpoint is
// written when -checkpoint is set, and the deterministic report lands on
// stdout. A SIGKILLed server instead resumes from its last periodic
// checkpoint via -resume; clients replay their streams (duplicates ack as
// dups) and the final report converges to the uninterrupted run's.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/front"
	"repro/internal/obs"
	"repro/internal/policy"
)

func main() {
	var (
		listen   = flag.String("listen", ":8080", "HTTP listen address")
		polName  = flag.String("policy", "flowtime", policy.Usage())
		eps      = flag.Float64("eps", 0.2, "scheduler rejection parameter ε")
		alpha    = flag.Float64("alpha", 0, "power exponent (speedscale)")
		machines = flag.Int("machines", 8, "machines per shard session")
		shards   = flag.Int("shards", 1, "scheduler shard count")
		sizeHint = flag.Int("size-hint", 0, "expected total jobs across all streams (preallocation hint, 0 grows on demand)")

		throttleDepth = flag.Int("throttle-depth", 0, "depth watermark: accept → throttle (0 disables)")
		rejectDepth   = flag.Int("reject-depth", 0, "depth watermark: throttle → pre-reject (0 disables)")
		resumeDepth   = flag.Int("resume-depth", 0, "hysteresis floor back to accept (0: half the low watermark)")
		admEps        = flag.Float64("adm-eps", 0, "per-tenant pre-rejection budget rate (ε·fed weight)")
		admBurst      = flag.Float64("adm-burst", 0, "initial per-tenant pre-rejection allowance (weight)")
		maxQueuedW    = flag.Float64("max-queued-weight", 0, "per-tenant queued-weight cap (0: unlimited)")

		queueDepth    = flag.Int("queue-depth", 256, "per-stream sequencer queue depth (jobs)")
		awaitTenants  = flag.Int("await-tenants", 0, "hold the merge until this many tenants connect")
		readTimeout   = flag.Duration("read-timeout", 30*time.Second, "deadline of each read on a feed connection")
		throttleDelay = flag.Duration("throttle-delay", time.Millisecond, "per-job intake delay while throttling")

		ckpt       = flag.String("checkpoint", "", "root a checkpoint lineage at this path (P.N.full, P.N.delta, P.lineage)")
		ckptN      = flag.Int("checkpoint-every", 0, "checkpoint every N fed jobs (0: resizes and final drain only)")
		ckptDeltas = flag.Int("checkpoint-deltas", 0, "up to N delta checkpoints between fulls (0: fulls only)")
		ckptKeep   = flag.Int("checkpoint-keep", 0, "retain only the newest N full generations (0: 2)")
		resume     = flag.String("resume", "", "restore the server from the checkpoint lineage rooted at this path before serving")

		stallEvery    = flag.Int("stall-every", 0, "fault injection: stall each shard feeder every N jobs (0 disables)")
		stallDelay    = flag.Duration("stall-delay", 0, "fault injection: stall duration")
		crashAtResize = flag.String("crash-at-resize", "", "fault injection: exit 137 at this resize point (pre|mid|post)")

		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty disables telemetry)")
		progress  = flag.Duration("progress", 0, "print a periodic status line to stderr (0 disables)")
	)
	flag.Parse()

	lg := log.New(os.Stderr, "schedserve: ", 0)
	var reg *obs.Registry
	if *debugAddr != "" || *progress > 0 {
		reg = obs.NewRegistry()
	}

	cfg := front.Config{
		Policy:   *polName,
		Epsilon:  *eps,
		Alpha:    *alpha,
		Machines: *machines,
		Shards:   *shards,
		SizeHint: *sizeHint,
		Admission: admission.Config{
			ThrottleDepth:   *throttleDepth,
			RejectDepth:     *rejectDepth,
			ResumeDepth:     *resumeDepth,
			Epsilon:         *admEps,
			Burst:           *admBurst,
			MaxQueuedWeight: *maxQueuedW,
		},
		QueueDepth:       *queueDepth,
		AwaitTenants:     *awaitTenants,
		ReadTimeout:      *readTimeout,
		ThrottleDelay:    *throttleDelay,
		CheckpointPath:   *ckpt,
		CheckpointEvery:  *ckptN,
		CheckpointDeltas: *ckptDeltas,
		CheckpointKeep:   *ckptKeep,
		Stall:            chaos.Stall{Every: *stallEvery, Delay: *stallDelay},
		CrashAtResize:    *crashAtResize,
		Obs:              reg,
	}

	srv, err := front.Open(cfg, *resume, lg)
	if err != nil {
		fatal(err)
	}

	hs := &http.Server{Addr: *listen, Handler: srv.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "schedserve: %s ε=%v on %s (m=%d × %d shards)\n",
		*polName, *eps, *listen, *machines, *shards)

	var ds *http.Server
	if *debugAddr != "" {
		ds = &http.Server{Addr: *debugAddr, Handler: debugMux(reg)}
		go func() {
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "schedserve: debug listener:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "schedserve: telemetry on %s (/metrics, /debug/vars, /debug/pprof)\n", *debugAddr)
	}
	stopProgress := func() {}
	if *progress > 0 {
		stopProgress = srv.Progress(lg, *progress)
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-httpDone:
		fatal(err) // the listener died out from under us
	case sig := <-sigC:
		fmt.Fprintf(os.Stderr, "schedserve: %v, draining\n", sig)
	}

	// Graceful drain: the front door refuses new streams, finishes verdicts,
	// quiesces the fleet, writes the final checkpoint, and the report goes to
	// stdout — then the HTTP listener closes.
	rep, err := srv.Drain()
	stopProgress()
	if err != nil {
		fatal(err)
	}
	if err := rep.WriteIndented(os.Stdout); err != nil {
		fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if ds != nil {
		ds.Shutdown(ctx)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

// debugMux assembles the observability surface: the obs registry as
// Prometheus text and expvar-style JSON, plus net/http/pprof. Explicit
// pprof routes (not http.DefaultServeMux) keep the profiling surface
// off the ingest listener.
func debugMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "schedserve:", err)
	os.Exit(1)
}
