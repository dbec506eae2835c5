package front

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Handler serves the front door's wire protocol (documented in
// internal/chaos/client.go, the protocol's reference client):
//
//	POST /v1/feed?tenant=T   stream NDJSON jobs in, NDJSON acks out
//	POST /v1/drain           drain the server, respond with the final report
//	POST /v1/resize?shards=K crash-safe fleet resize; answers when it lands
//	GET  /v1/stats           live counters
//	GET  /healthz            readiness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/feed", s.handleFeed)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("POST /v1/resize", s.handleResize)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// httpError answers a pre-stream failure with a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// AppendAck appends a's wire line — {"id":N,"st":"S"} and a newline, the
// bytes json.Encoder produces for it — to dst. St must be one of the
// chaos.Ack* constants: it is appended unescaped.
func AppendAck(dst []byte, a Ack) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(a.ID), 10)
	dst = append(dst, `,"st":"`...)
	dst = append(dst, a.St...)
	return append(dst, '"', '}', '\n')
}

// writeAcks streams acks to w until the channel closes, calling flush (after
// flushing its own buffer) whenever no further ack is pending. After the
// first failed write or flush — the client is gone — it stops encoding but
// keeps receiving, because the sequencer must never block on this stream;
// that first error is returned.
func writeAcks(acks <-chan Ack, w io.Writer, flush func() error) error {
	bw := bufio.NewWriter(w)
	var err error
	for a := range acks {
		if err != nil {
			continue
		}
		if _, err = bw.Write(AppendAck(bw.AvailableBuffer(), a)); err == nil && len(acks) == 0 {
			if err = bw.Flush(); err == nil {
				err = flush()
			}
		}
	}
	return err
}

// deadlineReader arms the connection's read deadline before every read of
// the request body, so the timeout bounds each wait on the client and frames
// already buffered cost nothing.
type deadlineReader struct {
	body    io.Reader
	rc      *http.ResponseController
	timeout time.Duration
	expired atomic.Bool
}

func (d *deadlineReader) Read(p []byte) (int, error) {
	d.rc.SetReadDeadline(time.Now().Add(d.timeout))
	if d.expired.Load() {
		// expire ran before or during the arming above, which may have
		// overwritten its deadline; whichever call lands last says "now".
		d.rc.SetReadDeadline(time.Now())
	}
	return d.body.Read(p)
}

// expire cuts short the read in progress and fails every later one.
func (d *deadlineReader) expire() {
	d.expired.Store(true)
	d.rc.SetReadDeadline(time.Now())
}

// handleFeed is the ingestion endpoint: it parses the tenant's NDJSON
// stream through the strict reader (duplicate ids and release dips are
// refused at the frame), pushes jobs into the tenant's merge queue, and
// streams the sequencer's acks back as they happen. A read deadline is
// armed before every read of the body, so a stalled client is cut off
// instead of wedging the merge; the sequencer separately kills streams whose
// ack consumer stops reading.
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	// One stream, one connection — including refusals. A feed request's body
	// is already streaming when the handler answers, and handing a conn with
	// a half-consumed chunked body back to net/http for reuse is a trap: the
	// post-handler body discard can hit EOF after the server already aborted
	// its pending reads, spawning a background read that panics the conn's
	// next-request Peek ("invalid concurrent Body.Read call").
	w.Header().Set("Connection", "close")
	tenant, err := strconv.Atoi(r.URL.Query().Get("tenant"))
	if err != nil || tenant < 0 || tenant > maxTenant {
		httpError(w, http.StatusBadRequest, "tenant must be an integer in [0, %d], got %q", maxTenant, r.URL.Query().Get("tenant"))
		return
	}
	rc := http.NewResponseController(w)
	// The feed is full duplex: acks stream out while the body streams in.
	// Without this, HTTP/1.x servers may concurrently drain the unread body
	// once the first ack is written, tearing frames out from under the
	// parser. (HTTP/2 is duplex by nature; an unsupported error is fine.)
	rc.EnableFullDuplex()
	body := &deadlineReader{body: r.Body, rc: rc, timeout: s.cfg.ReadTimeout}
	feed, err := NewFeed(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if feed.Machines() != s.cfg.Machines {
		httpError(w, http.StatusBadRequest, "stream header declares %d machines, server runs %d", feed.Machines(), s.cfg.Machines)
		return
	}
	st, err := s.OpenStream(tenant)
	switch {
	case errors.Is(err, ErrTenantBusy):
		httpError(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc.Flush()

	// The parser goroutine owns the request body (and its read deadline);
	// this goroutine owns the response. parseErr is read only after
	// parserDone closes.
	var parseErr error
	parserDone := make(chan struct{})
	go func() {
		defer close(parserDone)
		_, parseErr = feed.Into(st, 0)
	}()

	writeErr := writeAcks(st.Acks(), w, rc.Flush)
	// The acks are done: the stream finished, was killed, or the server is
	// draining. The parser may still be blocked mid-read on a live body
	// (killed stream, client still sending) — expire its read and join it
	// before returning, because net/http reads the connection itself once
	// the handler returns and a racing Body.Read panics the conn. On the
	// clean path the parser already exited at EOF; leave the deadline alone.
	select {
	case <-parserDone:
	default:
		body.expire()
		<-parserDone
	}
	if writeErr != nil {
		return // the client is gone; there is no one to send a trailer to
	}
	enc := json.NewEncoder(w)
	switch {
	case parseErr != nil:
		enc.Encode(map[string]string{"error": parseErr.Error()})
	case st.Err() != nil:
		enc.Encode(map[string]string{"error": st.Err().Error()})
	default:
		enc.Encode(map[string]bool{"done": true})
	}
	rc.Flush()
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	rep, err := s.Drain()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rep)
}

// handleResize triggers a crash-safe fleet resize and blocks until it
// completes (the sequencer executes it between merge pops). Responds with
// the live shard count and full history; resizing to the current count is
// a successful no-op, so retrying after an ambiguous failure is safe.
func (s *Server) handleResize(w http.ResponseWriter, r *http.Request) {
	shards, err := strconv.Atoi(r.URL.Query().Get("shards"))
	if err != nil || shards <= 0 {
		httpError(w, http.StatusBadRequest, "shards must be a positive integer, got %q", r.URL.Query().Get("shards"))
		return
	}
	switch err := s.Resize(shards); {
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, ErrResizeBusy):
		httpError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.mu.Lock()
	hist := append([]int(nil), s.shardHist...)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"shards": shards, "history": hist})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}
