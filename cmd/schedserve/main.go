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
//	GET /debug/pprof/...     net/http/pprof (profile, heap, trace, ...)
//
// -checkpoint P roots a checkpoint lineage at P (members P.N.full /
// P.N.delta, beside P; see internal/snapshot): every
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

	"repro/internal/front"
	"repro/internal/obs"
	"repro/internal/policy"
)

// options is schedserve's command line: the front door's Config, bound
// flag by flag, plus what the process itself serves and resumes from.
type options struct {
	cfg       front.Config
	listen    string
	resume    string
	debugAddr string
	progress  time.Duration
}

// parseFlags maps the command line onto options. Telemetry is on — Obs is a
// fresh registry — when -debug-addr serves it or -progress prints from it.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	cfg := &o.cfg
	fs.StringVar(&o.listen, "listen", ":8080", "HTTP listen address")
	fs.StringVar(&cfg.Policy, "policy", "flowtime", policy.Usage())
	fs.Float64Var(&cfg.Epsilon, "eps", 0.2, "scheduler rejection parameter ε")
	fs.Float64Var(&cfg.Alpha, "alpha", 0, "power exponent (speedscale)")
	fs.IntVar(&cfg.Machines, "machines", 8, "machines per shard session")
	fs.IntVar(&cfg.Shards, "shards", 1, "scheduler shard count")
	fs.IntVar(&cfg.SizeHint, "size-hint", 0, "expected total jobs across all streams (preallocation hint, 0 grows on demand)")

	adm := &cfg.Admission
	fs.IntVar(&adm.ThrottleDepth, "throttle-depth", 0, "depth watermark: accept → throttle (0 disables)")
	fs.IntVar(&adm.RejectDepth, "reject-depth", 0, "depth watermark: throttle → pre-reject (0 disables)")
	fs.IntVar(&adm.ResumeDepth, "resume-depth", 0, "hysteresis floor back to accept (0: half the low watermark)")
	fs.Float64Var(&adm.Epsilon, "adm-eps", 0, "per-tenant pre-rejection budget rate (ε·fed weight)")
	fs.Float64Var(&adm.Burst, "adm-burst", 0, "initial per-tenant pre-rejection allowance (weight)")
	fs.Float64Var(&adm.MaxQueuedWeight, "max-queued-weight", 0, "per-tenant queued-weight cap (0: unlimited)")

	fs.IntVar(&cfg.QueueDepth, "queue-depth", 256, "per-stream sequencer queue depth (jobs)")
	fs.IntVar(&cfg.AwaitTenants, "await-tenants", 0, "hold the merge until this many tenants connect")
	fs.DurationVar(&cfg.ReadTimeout, "read-timeout", 30*time.Second, "deadline of each read on a feed connection")
	fs.DurationVar(&cfg.ThrottleDelay, "throttle-delay", time.Millisecond, "per-job intake delay while throttling")

	fs.StringVar(&cfg.CheckpointPath, "checkpoint", "", "root a checkpoint lineage at this path (P.N.full, P.N.delta)")
	fs.IntVar(&cfg.CheckpointEvery, "checkpoint-every", 0, "checkpoint every N fed jobs (0: resizes and final drain only)")
	fs.IntVar(&cfg.CheckpointDeltas, "checkpoint-deltas", 0, "up to N delta checkpoints between fulls (0: fulls only)")
	fs.IntVar(&cfg.CheckpointKeep, "checkpoint-keep", 0, "retain only the newest N full generations (0: 2)")
	fs.StringVar(&o.resume, "resume", "", "restore the server from the checkpoint lineage rooted at this path before serving")

	fs.IntVar(&cfg.Stall.Every, "stall-every", 0, "fault injection: stall each shard feeder every N jobs (0 disables)")
	fs.DurationVar(&cfg.Stall.Delay, "stall-delay", 0, "fault injection: stall duration")
	fs.StringVar(&cfg.CrashAtResize, "crash-at-resize", "", "fault injection: exit 137 at this resize point (pre|mid|post)")

	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics and /debug/pprof on this address (empty disables telemetry)")
	fs.DurationVar(&o.progress, "progress", 0, "print a periodic status line to stderr (0 disables)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.debugAddr != "" || o.progress > 0 {
		cfg.Obs = obs.NewRegistry()
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}
	lg := log.New(os.Stderr, "schedserve: ", 0)
	srv, err := front.Open(o.cfg, o.resume, lg)
	if err != nil {
		fatal(err)
	}

	hs := &http.Server{Addr: o.listen, Handler: srv.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "schedserve: %s ε=%v on %s (m=%d × %d shards)\n",
		o.cfg.Policy, o.cfg.Epsilon, o.listen, o.cfg.Machines, o.cfg.Shards)

	var ds *http.Server
	if o.debugAddr != "" {
		ds = &http.Server{Addr: o.debugAddr, Handler: debugMux(o.cfg.Obs)}
		go func() {
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "schedserve: debug listener:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "schedserve: telemetry on %s (/metrics, /debug/pprof)\n", o.debugAddr)
	}
	stopProgress := func() {}
	if o.progress > 0 {
		stopProgress = srv.Progress(lg, o.progress)
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
// Prometheus text, plus net/http/pprof. Explicit pprof routes (not
// http.DefaultServeMux) keep the profiling surface off the ingest listener.
func debugMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
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
