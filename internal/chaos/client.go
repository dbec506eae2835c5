package chaos

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
)

// The wire protocol (shared with internal/front):
//
//	POST {server}/v1/feed?tenant=T
//	  request body:  an NDJSON trace — header line {"machines":M,"alpha":A},
//	                 then one job per line in non-decreasing release order,
//	                 ids tenant-local.
//	  response body: a stream of NDJSON ack lines, one per job line:
//	                 {"id":L,"st":"ok"|"rej"|"dup"} — fed, pre-rejected, or
//	                 already decided (an at-least-once replay). The line's
//	                 bytes are exactly that: `{"id":`, L in decimal,
//	                 `,"st":"`, the status, `"}`, '\n' — no whitespace, keys
//	                 in this order (front.AppendAck writes them; a client
//	                 may scan for them without a JSON parser). A clean end
//	                 of stream is acknowledged with {"done":true}; a stream
//	                 refused mid-flight ends with {"error":"..."}.
//	  errors:        non-200 with a JSON {"error":"..."} body — 409 when the
//	                 tenant already has a live stream, 503 when draining.
//
//	POST {server}/v1/drain   → final deterministic report (JSON)
//	GET  {server}/v1/stats   → live counters (JSON)
//	GET  {server}/healthz    → 200 "ok"
//
// Acks are keyed by the tenant-local job id, so the client can tell exactly
// which jobs survived a killed connection and replay only the remainder.

// ack is one response line of the feed stream.
type ack struct {
	ID   int    `json:"id"`
	St   string `json:"st"`
	Done bool   `json:"done"`
	Err  string `json:"error"`
}

// Ack statuses of the feed stream.
const (
	AckOK  = "ok"  // fed to the scheduler
	AckRej = "rej" // pre-rejected by admission control
	AckDup = "dup" // already decided (at-least-once replay)
)

// Faults schedules the client's self-inflicted connection failures: Kills
// attempts are aborted by severing the connection mid-batch, Truncations
// attempts end with a torn frame (a partial JSON line, then a clean close).
// Fault points are picked uniformly in [1, Window] jobs into the attempt by
// the client's seeded PRNG. Kills+Truncations must stay below the retry
// budget or the client can run out of clean attempts.
type Faults struct {
	Kills       int
	Truncations int
	Window      int
}

// Client is a retrying NDJSON feed client: it streams a tenant's jobs to the
// front door, tracks per-job acks, and on any failure — injected or real —
// backs off exponentially (with jitter) and replays the jobs that were never
// acknowledged. Replays rely on the server's idempotent duplicate handling:
// a job fed on a connection whose ack was lost comes back as AckDup.
type Client struct {
	Server   string  // base URL, e.g. http://127.0.0.1:7070
	Tenant   int     // tenant id (job ids are tenant-local)
	Machines int     // machine count for the trace header
	Alpha    float64 // power exponent for the trace header (0 = flow time)

	MaxAttempts int           // total connection attempts (default 32)
	BackoffBase time.Duration // first retry delay (default 10ms)
	BackoffMax  time.Duration // delay cap (default 1s)
	Rate        float64       // pacing in jobs/sec, 0 = unpaced

	Faults Faults // injected failures
	Seed   uint64 // PRNG seed for fault points and jitter

	Log func(format string, args ...any) // optional progress log

	// AttemptsC and FailuresC, when set, count connection attempts and
	// failed attempts as they happen (nil disables — obs counters are
	// nil-receiver safe). Many clients may share one pair: the loadgen
	// registers a fleet-wide total across all its tenants.
	AttemptsC *obs.Counter
	FailuresC *obs.Counter
}

// Result summarizes a completed Run: every job's final ack status plus the
// connection history.
type Result struct {
	OK          int // acked "ok": fed to the scheduler
	Rejected    int // acked "rej": pre-rejected by admission control
	Dup         int // acked only "dup": decided on a connection whose ack was lost
	Attempts    int
	Kills       int
	Truncations int

	// FailedAttempts counts attempts that ended in an error or an
	// incomplete ack set — including the injected ones — even when the
	// run eventually succeeded. Attempts - FailedAttempts is therefore
	// 1 on a successful run and 0 on a run that exhausted its budget.
	FailedAttempts int
	// LastErr is the most recent attempt failure, retained on success
	// so callers can see what the retries were recovering from.
	LastErr string
}

// errInjected marks a self-inflicted connection abort.
var errInjected = errors.New("chaos: injected connection kill")

func (c *Client) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// Run streams jobs (tenant-local ids, non-decreasing releases) until every
// job has been acknowledged, injecting the configured faults along the way.
// It fails only when the retry budget or ctx is exhausted first.
func (c *Client) Run(ctx context.Context, jobs []sched.Job) (*Result, error) {
	maxAttempts := c.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 32
	}
	rng := NewRand(c.Seed)
	res := &Result{}
	acked := make(map[int]string, len(jobs))
	kills, truncs := c.Faults.Kills, c.Faults.Truncations
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			if err := c.backoff(ctx, rng, attempt); err != nil {
				return nil, err
			}
		}
		mode := faultNone
		switch {
		case kills > 0:
			kills--
			res.Kills++
			mode = faultKill
		case truncs > 0:
			truncs--
			res.Truncations++
			mode = faultTruncate
		}
		res.Attempts = attempt
		c.AttemptsC.Inc()
		err := c.attempt(ctx, jobs, acked, mode, rng)
		if len(acked) == len(jobs) {
			for _, st := range acked {
				switch st {
				case AckOK:
					res.OK++
				case AckRej:
					res.Rejected++
				default:
					res.Dup++
				}
			}
			return res, nil
		}
		if err == nil {
			err = fmt.Errorf("stream ended with %d of %d jobs unacknowledged", len(jobs)-len(acked), len(jobs))
		}
		lastErr = err
		res.FailedAttempts++
		res.LastErr = err.Error()
		c.FailuresC.Inc()
		c.logf("tenant %d attempt %d: %v (%d/%d acked)", c.Tenant, attempt, err, len(acked), len(jobs))
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("chaos: tenant %d gave up after %d attempts (%d/%d acked): %w",
		c.Tenant, maxAttempts, len(acked), len(jobs), lastErr)
}

// backoff sleeps the exponential-with-jitter retry delay for the given
// attempt (2 = first retry), honoring ctx.
func (c *Client) backoff(ctx context.Context, rng *Rand, attempt int) error {
	base, max := c.BackoffBase, c.BackoffMax
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	d := base
	for i := 2; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Full jitter over [d/2, d): correlated retries from many tenants decorrelate.
	d = d/2 + time.Duration(rng.Float64()*float64(d/2))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

type faultMode int

const (
	faultNone faultMode = iota
	faultKill
	faultTruncate
)

// attempt opens one feed connection, streams every not-yet-acked job, and
// records the acks that come back. A fault mode aborts the upload partway: a
// kill severs the connection, a truncation writes a torn job line and closes
// cleanly. Acks received before the abort are kept — that is the point.
func (c *Client) attempt(ctx context.Context, jobs []sched.Job, acked map[int]string, mode faultMode, rng *Rand) error {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(actx, http.MethodPost,
		c.Server+"/v1/feed?tenant="+strconv.Itoa(c.Tenant), pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	faultAt := -1
	if mode != faultNone {
		window := c.Faults.Window
		if window <= 0 {
			window = 64
		}
		faultAt = 1 + rng.Intn(window)
	}
	var pace time.Duration
	if c.Rate > 0 {
		pace = time.Duration(float64(time.Second) / c.Rate)
	}

	// The uploader replays the tail unacknowledged when the attempt starts;
	// it works from a snapshot because the ack loop below writes the live
	// map concurrently, and any ack landing mid-attempt is for a job this
	// uploader already sent.
	sentBefore := make(map[int]bool, len(acked))
	for id := range acked {
		sentBefore[id] = true
	}
	go func() {
		w, err := trace.NewNDJSONWriter(pw, c.Machines, c.Alpha)
		if err != nil {
			pw.CloseWithError(err)
			return
		}
		sent := 0
		for k := range jobs {
			if sentBefore[jobs[k].ID] {
				continue // replay only the unacknowledged tail
			}
			if faultAt >= 0 && sent >= faultAt {
				if mode == faultTruncate {
					// A torn frame: half a job line, then a clean close. The
					// server must refuse the fragment with a positioned error
					// without dropping the jobs already fed.
					io.WriteString(pw, `{"id":`+strconv.Itoa(jobs[k].ID)+`,"rel`)
					pw.Close()
				} else {
					cancel() // sever the TCP stream mid-body
					pw.CloseWithError(errInjected)
				}
				return
			}
			if err := w.Write(&jobs[k]); err != nil {
				pw.CloseWithError(err)
				return
			}
			if err := w.Flush(); err != nil {
				pw.CloseWithError(err)
				return
			}
			sent++
			if pace > 0 {
				select {
				case <-actx.Done():
					pw.CloseWithError(actx.Err())
					return
				case <-time.After(pace):
				}
			}
		}
		if err := w.Flush(); err != nil {
			pw.CloseWithError(err)
			return
		}
		pw.Close()
	}()

	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("server refused stream: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 4<<10), 1<<20)
	var streamErr error
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var a ack
		if err := json.Unmarshal(line, &a); err != nil {
			streamErr = fmt.Errorf("bad ack line %q: %w", line, err)
			continue
		}
		switch {
		case a.Err != "":
			streamErr = fmt.Errorf("server closed stream: %s", a.Err)
		case a.Done:
		default:
			// A real verdict wins over "dup"; a dup never downgrades one.
			if prev, ok := acked[a.ID]; !ok || (prev == AckDup && a.St != AckDup) {
				acked[a.ID] = a.St
			}
		}
	}
	if err := sc.Err(); err != nil && streamErr == nil {
		streamErr = err
	}
	return streamErr
}

// Drain asks the server to drain and returns the raw final report JSON.
func Drain(ctx context.Context, server string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, server+"/v1/drain", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("drain: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// Resize asks the server to resize its shard fleet and returns the raw JSON
// response ({"shards":K,"history":[...]}). Resizing to the current count is
// a successful no-op on the server, so retrying after an ambiguous failure
// is safe.
func Resize(ctx context.Context, server string, shards int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		server+"/v1/resize?shards="+strconv.Itoa(shards), nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("resize: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// WaitReady polls the server's health endpoint until it answers, ctx
// expires, or the timeout elapses — the loadgen's startup barrier.
func WaitReady(ctx context.Context, server string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, server+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: server %s not ready after %v: %v", server, timeout, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
