// Command loadgen is the fault-injecting load driver for schedserve: it
// fans a synthetic multi-tenant workload out through retrying chaos clients
// (internal/chaos), optionally killing its own connections and truncating
// frames mid-batch, then drains the server and audits the final report
// against what the clients saw acknowledged.
//
// Usage:
//
//	loadgen -server http://127.0.0.1:8080 -tenants 4 -jobs 5000
//	loadgen -server ... -kills 2 -truncations 1 -window 500      # client faults
//	loadgen -server ... -drain -report-out report.json           # drain + audit
//	loadgen -server ... -no-feed -drain -report-out after.json   # drain only
//	loadgen -server ... -no-feed -resize-to 3                    # fleet resize
//	loadgen -server ... -id-base 10000 -release-base 1e6         # later phase
//
// Multi-phase runs across a resize boundary compose from these: phase one
// feeds, a -resize-to call regrows the fleet, phase two feeds with -id-base
// and -release-base lifted above phase one (distinct ids, releases past the
// merge watermark), and the final -drain audit checks conservation over both
// phases plus -expect-shards against the report's live count and history.
//
// With -drain the exit status is the audit: 0 only if the drained report
// balances — every submitted job fed or pre-rejected, every fed job
// completed or rejected, and each tenant's pre-rejected weight within its
// ε-scaled budget (the invariant of Lucarelli et al.'s rejection budget,
// applied at the admission boundary). The CI chaos smoke SIGKILLs schedserve
// under this driver, resumes it from its checkpoint, replays with a second
// loadgen run, and diffs -report-out files between the interrupted and
// straight-through universes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/front"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds loadgen's flags.
type options struct {
	server                  string
	tenants, jobs, machines int
	load, rate, relBase     float64
	seed                    int64
	kills, truncs, window   int
	attempts, idBase        int
	resizeTo, expShards     int
	scrape, reportOut       string
	scrapeEvery, wait       time.Duration
	noFeed, drain, verbose  bool
}

// parse maps the command line onto options. On a syntax error or a value
// out of range it prints the problem, naming the flag, and returns nil.
func parse(args []string, stderr io.Writer) *options {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.server, "server", "http://127.0.0.1:8080", "schedserve base URL")
	fs.IntVar(&o.tenants, "tenants", 4, "concurrent tenant streams")
	fs.IntVar(&o.jobs, "jobs", 2000, "jobs per tenant")
	fs.IntVar(&o.machines, "machines", 8, "machine count (must match the server)")
	fs.Float64Var(&o.load, "load", 1.2, "workload load factor")
	fs.Int64Var(&o.seed, "seed", 7, "workload base seed (tenant t uses seed+t)")
	fs.Float64Var(&o.rate, "rate", 0, "per-tenant pacing, jobs/sec (0: unpaced)")

	fs.IntVar(&o.kills, "kills", 0, "per tenant: connections to kill mid-batch")
	fs.IntVar(&o.truncs, "truncations", 0, "per tenant: frames to truncate")
	fs.IntVar(&o.window, "window", 200, "inject each fault within this many jobs of stream start")
	fs.IntVar(&o.attempts, "max-attempts", 32, "per tenant: connection attempt budget")

	fs.IntVar(&o.idBase, "id-base", 0, "add this to every tenant-local job id (later phases of a multi-phase run)")
	fs.Float64Var(&o.relBase, "release-base", 0, "add this to every release time (lift a later phase past the merge watermark)")
	fs.IntVar(&o.resizeTo, "resize-to", 0, "after feeding, resize the server's shard fleet to this count (0: no resize)")

	fs.StringVar(&o.scrape, "scrape", "", "schedserve debug base URL (its -debug-addr): poll /metrics and print a live table while feeding")
	fs.DurationVar(&o.scrapeEvery, "scrape-every", time.Second, "live-table poll interval (requires -scrape)")

	fs.DurationVar(&o.wait, "wait-ready", 10*time.Second, "poll /healthz this long before feeding")
	fs.BoolVar(&o.noFeed, "no-feed", false, "skip feeding (use with -drain to audit a server fed earlier)")
	fs.BoolVar(&o.drain, "drain", false, "drain the server afterwards and audit the final report")
	fs.StringVar(&o.reportOut, "report-out", "", "write the drained report JSON here (requires -drain)")
	fs.IntVar(&o.expShards, "expect-shards", 0, "audit: the drained report must show this live shard count (requires -drain)")
	fs.BoolVar(&o.verbose, "v", false, "log per-tenant progress")
	if err := fs.Parse(args); err != nil {
		return nil
	}
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	for _, c := range []struct {
		flag, want string
		ok         bool
	}{
		{"tenants", "a positive integer", o.tenants > 0},
		{"jobs", "a positive integer", o.jobs > 0},
		{"machines", "a positive integer", o.machines > 0},
		{"load", "positive and finite", o.load > 0 && finite(o.load)},
		{"rate", "non-negative and finite", o.rate >= 0 && finite(o.rate)},
		{"report-out", "used with -drain", o.reportOut == "" || o.drain},
		{"expect-shards", "used with -drain", o.expShards <= 0 || o.drain},
	} {
		if !c.ok {
			fmt.Fprintf(stderr, "loadgen: -%s must be %s, got %s\n", c.flag, c.want, fs.Lookup(c.flag).Value)
			return nil
		}
	}
	return &o
}

// run is the command: it parses args, then feeds, resizes, drains and
// audits as the flags ask, and returns the exit status: 2 for a bad flag,
// before any connection is made; 1 for a failed run or audit.
func run(args []string, stdout, stderr io.Writer) int {
	o := parse(args, stderr)
	if o == nil {
		return 2
	}
	if err := o.drive(stderr); err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 1
	}
	return 0
}

// auditFailed is the error of a drained report that fails the audit.
func auditFailed(format string, args ...any) error {
	return fmt.Errorf("AUDIT FAILED: "+format, args...)
}

// drive runs the load the options describe against the server, logging to
// stderr, and audits the drained report when -drain asks for one.
func (o *options) drive(stderr io.Writer) error {
	ctx := context.Background()
	if err := chaos.WaitReady(ctx, o.server, o.wait); err != nil {
		return err
	}

	// The live table and the final-scrape audit both read the server's
	// telemetry via its -debug-addr /metrics endpoint.
	if o.scrape != "" {
		if _, err := scrapeOnce(o.scrape); err != nil {
			return fmt.Errorf("-scrape: %w", err)
		}
	}

	var attemptsC, failuresC obs.Counter // fleet-wide retry accounting across tenants

	submitted := 0
	if !o.noFeed {
		stopScrape := make(chan struct{})
		var scrapeDone sync.WaitGroup
		if o.scrape != "" {
			scrapeDone.Add(1)
			go func() {
				defer scrapeDone.Done()
				liveTable(stderr, o.scrape, o.scrapeEvery, stopScrape)
			}()
		}

		var wg sync.WaitGroup
		results := make([]*chaos.Result, o.tenants)
		errs := make([]error, o.tenants)
		for t := 0; t < o.tenants; t++ {
			c := workload.DefaultConfig(o.jobs, o.machines, o.seed+int64(t))
			c.Load = o.load
			trace := workload.Random(c).Jobs
			for k := range trace {
				trace[k].ID += o.idBase
				trace[k].Release += o.relBase
			}
			cl := &chaos.Client{
				Server:      o.server,
				Tenant:      t,
				Machines:    o.machines,
				MaxAttempts: o.attempts,
				Rate:        o.rate,
				Faults:      chaos.Faults{Kills: o.kills, Truncations: o.truncs, Window: o.window},
				Seed:        uint64(o.seed) + uint64(t)*0x9e3779b97f4a7c15,
				AttemptsC:   &attemptsC,
				FailuresC:   &failuresC,
			}
			if o.verbose {
				tt := t
				cl.Log = func(format string, args ...any) {
					fmt.Fprintf(stderr, "loadgen: tenant %d: %s\n", tt, fmt.Sprintf(format, args...))
				}
			}
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				results[t], errs[t] = cl.Run(ctx, trace)
			}(t)
		}
		wg.Wait()
		close(stopScrape)
		scrapeDone.Wait()
		for t, err := range errs {
			if err != nil {
				return fmt.Errorf("tenant %d: %w", t, err)
			}
		}
		for t, res := range results {
			submitted += res.OK + res.Rejected + res.Dup
			line := fmt.Sprintf("loadgen: tenant %d: %d ok, %d rejected, %d dup in %d attempts (%d kills, %d truncations",
				t, res.OK, res.Rejected, res.Dup, res.Attempts, res.Kills, res.Truncations)
			if res.FailedAttempts > 0 {
				line += fmt.Sprintf(", %d failed — last: %s", res.FailedAttempts, res.LastErr)
			}
			fmt.Fprintln(stderr, line+")")
		}
		if a, f := attemptsC.Value(), failuresC.Value(); f > 0 {
			fmt.Fprintf(stderr, "loadgen: retries: %d attempts, %d failed across %d tenants\n", a, f, o.tenants)
		}
		if submitted != o.tenants*o.jobs {
			return fmt.Errorf("clients account for %d jobs, submitted %d", submitted, o.tenants*o.jobs)
		}
	}

	if o.resizeTo > 0 {
		raw, err := chaos.Resize(ctx, o.server, o.resizeTo)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "loadgen: resized: %s\n", bytes.TrimSpace(raw))
	}

	if !o.drain {
		return nil
	}
	raw, err := chaos.Drain(ctx, o.server)
	if err != nil {
		return err
	}
	var rep front.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("decoding drained report: %w", err)
	}
	if o.reportOut != "" {
		if err := os.WriteFile(o.reportOut, raw, 0o644); err != nil {
			return err
		}
	}

	// The audit. Conservation against the client's own ledger runs only when
	// this process fed the jobs; the structural invariants always hold.
	if !o.noFeed && rep.Fed+rep.PreRejected != submitted {
		return auditFailed("server decided %d jobs (%d fed + %d pre-rejected), clients submitted %d",
			rep.Fed+rep.PreRejected, rep.Fed, rep.PreRejected, submitted)
	}
	if rep.Completed+rep.Rejected != rep.Fed {
		return auditFailed("fed %d but completed %d + rejected %d — the fleet dropped jobs",
			rep.Fed, rep.Completed, rep.Rejected)
	}
	if o.expShards > 0 && rep.Shards != o.expShards {
		return auditFailed("report shows %d shards (history %v), expected %d", rep.Shards, rep.ShardHistory, o.expShards)
	}
	if n := len(rep.ShardHistory); n == 0 || rep.ShardHistory[n-1] != rep.Shards {
		return auditFailed("shard history %v does not end at the live count %d", rep.ShardHistory, rep.Shards)
	}
	acfg := admission.Config{Epsilon: rep.AdmissionEpsilon, Burst: rep.AdmissionBurst}
	for _, tr := range rep.Tenants {
		ten := admission.Tenant{ID: tr.ID, Fed: tr.Fed, FedWeight: tr.FedWeight,
			PreRejected: tr.PreRejected, PreRejectedWeight: tr.PreRejectedWeight}
		if err := admission.BudgetInvariant(acfg, ten, 1e-9); err != nil {
			return auditFailed("%v", err)
		}
		if tr.Completed+tr.Rejected != tr.Fed {
			return auditFailed("tenant %d: fed %d but completed %d + rejected %d", tr.ID, tr.Fed, tr.Completed, tr.Rejected)
		}
	}
	// Telemetry-vs-report cross-check: a final scrape of the server's live
	// counters must agree with the drained report. A divergence means the
	// metrics pipeline is lying about the system it instruments.
	if o.scrape != "" {
		sc, err := scrapeOnce(o.scrape)
		if err != nil {
			return auditFailed("final scrape: %v", err)
		}
		for _, chk := range []struct {
			series string
			want   int
		}{
			{"front_fed_total", rep.Fed},
			{"front_prerejected_total", rep.PreRejected},
		} {
			if !sc.Has(chk.series) {
				return auditFailed("final scrape is missing %s", chk.series)
			}
			if got := int(sc.Value(chk.series)); got != chk.want {
				return auditFailed("scraped %s = %d, drained report says %d", chk.series, got, chk.want)
			}
		}
		fmt.Fprintf(stderr, "loadgen: scrape audit ok: /metrics agrees with the drained report\n")
	}
	fmt.Fprintf(stderr, "loadgen: audit ok: %d fed, %d pre-rejected, %d completed, %d rejected (weight %.6g)\n",
		rep.Fed, rep.PreRejected, rep.Completed, rep.Rejected, rep.RejectedWeight)
	return nil
}

// scrapeOnce fetches and parses one /metrics exposition from the server's
// debug listener.
func scrapeOnce(base string) (obs.Scrape, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s/metrics: %s", base, resp.Status)
	}
	return obs.ParseText(resp.Body)
}

// liveTable polls /metrics every tick and prints one compact status row:
// admitted and shed weight (the admission ledger), the p99 sequencer
// decide latency, and the sequencer busy fraction over the poll window
// (busy-ns delta over wall delta — the saturation signal; at 1.00 the
// single-threaded sequencer is the wall).
func liveTable(stderr io.Writer, base string, every time.Duration, stop <-chan struct{}) {
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	fmt.Fprintf(stderr, "loadgen: %10s %12s %12s %12s %6s\n", "fed", "admit_w", "shed_w", "decide_p99", "busy")
	var lastBusy float64
	last := time.Now()
	first := true
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			sc, err := scrapeOnce(base)
			if err != nil {
				fmt.Fprintf(stderr, "loadgen: scrape: %v\n", err)
				continue
			}
			busy := sc.Value("front_sequencer_busy_ns_total")
			frac := (busy - lastBusy) / float64(now.Sub(last))
			lastBusy, last = busy, now
			if first { // no window yet: show the since-start fraction instead
				frac = sc.Value("front_sequencer_busy_fraction")
				first = false
			}
			fmt.Fprintf(stderr, "loadgen: %10.0f %12.1f %12.1f %10.2fms %6.2f\n",
				sc.Value("front_fed_total"),
				sc.Value("admission_fed_weight"),
				sc.Value("admission_tokens_spent_weight"),
				sc.Quantile("front_decide_ns", 0.99)/1e6,
				frac)
		}
	}
}
