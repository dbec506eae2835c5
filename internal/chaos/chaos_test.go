package chaos

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/trace"
)

// TestRandDeterministic pins the PRNG: same seed, same stream; the stream
// actually varies; Intn and Float64 stay in range.
func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	distinct := false
	var prev uint64
	for i := 0; i < 100; i++ {
		x, y := a.Uint64(), b.Uint64()
		if x != y {
			t.Fatalf("step %d: %d != %d from the same seed", i, x, y)
		}
		if i > 0 && x != prev {
			distinct = true
		}
		prev = x
	}
	if !distinct {
		t.Fatal("PRNG emitted a constant stream")
	}
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn(10) = %d", n)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v", f)
		}
	}
}

// countFeeder is a minimal snapshottable feeder for the StallFeeder tests.
type countFeeder struct {
	fed int
}

func (c *countFeeder) FeedBatch(jobs []sched.Job) error { c.fed += len(jobs); return nil }

func (c *countFeeder) SnapshotSize() (size, want int, err error) {
	n := len(fmt.Sprintf("fed=%d", c.fed))
	return n, 2 * n, nil
}

func (c *countFeeder) SnapshotInto(dst []byte) error {
	if got := fmt.Appendf(dst[:0], "fed=%d", c.fed); len(got) != len(dst) {
		return fmt.Errorf("%d-byte region for a %d-byte snapshot", len(dst), len(got))
	}
	return nil
}

// TestStallFeederForwards pins that the wrapper forwards batches of any
// size, counts stall boundaries across batches, and forwards the in-place
// capture, sizing and writing.
func TestStallFeederForwards(t *testing.T) {
	inner := &countFeeder{}
	f := NewStallFeeder(inner, Stall{Every: 4, Delay: time.Microsecond})
	for i := 0; i < 3; i++ {
		if err := f.FeedBatch([]sched.Job{{ID: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.FeedBatch(make([]sched.Job, 5)); err != nil {
		t.Fatal(err)
	}
	if inner.fed != 8 {
		t.Fatalf("inner saw %d jobs, want 8", inner.fed)
	}
	size, want, err := f.SnapshotSize()
	if err != nil || size != 5 || want != 10 {
		t.Fatalf("SnapshotSize = %d, %d, %v; want 5, 10", size, want, err)
	}
	got := []byte("kept .....")
	if err := f.SnapshotInto(got[5:]); err != nil || string(got) != "kept fed=8" {
		t.Fatalf("snapshot %q: %v", got, err)
	}
	if err := NewStallFeeder(nil, Stall{}).SnapshotInto(got); err == nil {
		t.Fatal("a feeder with nothing to snapshot captured")
	}
}

// feedServer is a miniature front door for the client tests: it speaks the
// feed protocol, remembers decided job ids across connections (acking
// replays as dup), and reports torn frames as stream errors.
type feedServer struct {
	mu      sync.Mutex
	decided map[int]string
	streams int
}

func (s *feedServer) handle(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.streams++
	s.mu.Unlock()
	// Acks stream out while the body streams in; without full duplex an
	// HTTP/1.x server closes the unread body at the first ack (cf.
	// internal/front's feed handler).
	http.NewResponseController(w).EnableFullDuplex()
	nr, err := trace.NewNDJSONReader(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	nr = nr.Strict()
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriter(w)
	fl, _ := w.(http.Flusher)
	emit := func(v any) {
		b, _ := json.Marshal(v)
		bw.Write(b)
		bw.WriteByte('\n')
		bw.Flush()
		if fl != nil {
			fl.Flush()
		}
	}
	for {
		j, err := nr.Next()
		if err == io.EOF {
			emit(map[string]any{"done": true})
			return
		}
		if err != nil {
			emit(map[string]any{"error": err.Error()})
			return
		}
		s.mu.Lock()
		st, dup := s.decided[j.ID]
		if !dup {
			st = AckOK
			if j.ID%5 == 4 {
				st = AckRej // deterministic sprinkle of rejections
			}
			s.decided[j.ID] = st
		}
		s.mu.Unlock()
		if dup {
			st = AckDup
		}
		emit(map[string]any{"id": j.ID, "st": st})
	}
}

// TestClientRetriesThroughFaults drives the client against the miniature
// server with one injected kill and one injected truncation: every job must
// end acknowledged, replays must come back as dups (never re-decided), and
// the fault/attempt accounting must match the schedule. The strict reader's
// duplicate-id refusal is also exercised: replayed jobs are filtered client
// side, so the server never sees an id twice on one connection.
func TestClientRetriesThroughFaults(t *testing.T) {
	srv := &feedServer{decided: make(map[int]string)}
	ts := httptest.NewServer(http.HandlerFunc(srv.handle))
	defer ts.Close()

	jobs := make([]sched.Job, 40)
	for i := range jobs {
		jobs[i] = sched.Job{ID: i, Release: float64(i), Weight: 1, Proc: []float64{1, 2}, Deadline: sched.NoDeadline}
	}
	c := &Client{
		Server:      ts.URL,
		Tenant:      3,
		Machines:    2,
		MaxAttempts: 8,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Faults:      Faults{Kills: 1, Truncations: 1, Window: 20},
		Seed:        42,
	}
	res, err := c.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kills != 1 || res.Truncations != 1 {
		t.Fatalf("faults injected: %+v", res)
	}
	if res.Attempts < 3 {
		t.Fatalf("completed in %d attempts despite 2 injected faults", res.Attempts)
	}
	if got := res.OK + res.Rejected + res.Dup; got != len(jobs) {
		t.Fatalf("acked %d of %d jobs: %+v", got, len(jobs), res)
	}
	if res.Rejected == 0 {
		t.Fatalf("server's deterministic rejections never surfaced: %+v", res)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.decided) != len(jobs) {
		t.Fatalf("server decided %d of %d jobs", len(srv.decided), len(jobs))
	}
	if srv.streams < 3 {
		t.Fatalf("server saw %d streams, want ≥ 3", srv.streams)
	}
}

// TestClientGivesUp pins the retry budget: a server that always refuses the
// stream exhausts MaxAttempts and surfaces the last error.
func TestClientGivesUp(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		http.Error(w, `{"error":"tenant busy"}`, http.StatusConflict)
	}))
	defer ts.Close()
	c := &Client{
		Server: ts.URL, Tenant: 1, Machines: 1,
		MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond,
	}
	_, err := c.Run(context.Background(), []sched.Job{{ID: 0, Weight: 1, Proc: []float64{1}, Deadline: sched.NoDeadline}})
	if err == nil {
		t.Fatal("client succeeded against a server that always refuses")
	}
}

// TestWaitReady pins the startup barrier against dead and live servers.
func TestWaitReady(t *testing.T) {
	if err := WaitReady(context.Background(), nil, "http://127.0.0.1:1", 50*time.Millisecond); err == nil {
		t.Fatal("WaitReady succeeded against a dead address")
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			io.WriteString(w, "ok")
			return
		}
		http.NotFound(w, r)
	}))
	defer ts.Close()
	if err := WaitReady(context.Background(), nil, ts.URL, time.Second); err != nil {
		t.Fatal(err)
	}
}
