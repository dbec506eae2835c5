package front

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestAppendAckMatchesJSON pins the hot ack line to the bytes json.Encoder
// wrote before it: one json.Marshal of the Ack plus a newline.
func TestAppendAckMatchesJSON(t *testing.T) {
	for _, st := range []string{chaos.AckOK, chaos.AckRej, chaos.AckDup} {
		for _, id := range []int{0, 1, 1 << 31, maxLocalID} {
			a := Ack{ID: id, St: st}
			want, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if got := AppendAck([]byte("x"), a); string(got) != "x"+string(want) {
				t.Fatalf("AppendAck(%+v) = %q, want %q appended", a, got, want)
			}
		}
	}
}

// failAfter accepts limit bytes, then fails every write.
type failAfter struct {
	limit, wrote, failed int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.wrote+len(p) > w.limit {
		w.failed++
		return 0, errors.New("connection gone")
	}
	w.wrote += len(p)
	return len(p), nil
}

// TestWriteAcksSurvivesDeadWriter: once the connection fails, writeAcks
// stops encoding into it — one failed write, not one per remaining ack —
// but still receives every ack, so the sequencer's sends never block; with
// a healthy writer every line arrives and the flush rule holds.
func TestWriteAcksSurvivesDeadWriter(t *testing.T) {
	const n = 5000
	feed := func() <-chan Ack {
		acks := make(chan Ack, 8)
		go func() {
			defer close(acks)
			for id := 0; id < n; id++ {
				acks <- Ack{ID: id, St: chaos.AckOK}
			}
		}()
		return acks
	}

	w := &failAfter{limit: 10000}
	err := writeAcks(feed(), w, func() error {
		if w.failed > 0 {
			t.Error("flush after the write failed")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "connection gone") {
		t.Fatalf("err = %v, want the writer's failure", err)
	}
	if w.failed != 1 {
		t.Fatalf("%d writes into the dead connection, want exactly 1", w.failed)
	}

	// A failing flush func stops the encoding the same way.
	w = &failAfter{limit: 1 << 30}
	flushes := 0
	err = writeAcks(feed(), w, func() error { flushes++; return errors.New("flush failed") })
	if err == nil || flushes != 1 {
		t.Fatalf("err = %v after %d flushes, want the first flush's failure and no second", err, flushes)
	}

	var out strings.Builder
	flushes = 0
	if err := writeAcks(feed(), &out, func() error { flushes++; return nil }); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for id := 0; id < n; id++ {
		fmt.Fprintf(&want, "{\"id\":%d,\"st\":\"ok\"}\n", id)
	}
	if out.String() != want.String() {
		t.Fatal("ack lines differ from the expected stream")
	}
	if flushes == 0 {
		t.Fatal("the last ack was never flushed")
	}
}

// TestFeedJoinsParserOnOpenBody: a stream shut down under a client that
// keeps its request body open (and silent) must still end — the handler
// expires the parser's blocked read through the deadline wrapper, joins it,
// and sends the trailer — well inside ReadTimeout, not after it.
func TestFeedJoinsParserOnOpenBody(t *testing.T) {
	cfg := testConfig(2, 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	defer pw.Close()
	go io.WriteString(pw, "{\"machines\":2}\n{\"id\":0,\"release\":0,\"proc\":[1,1]}\n{\"id\":1,\"release\":1,\"proc\":[1,1]}\n")
	req, err := http.NewRequest("POST", ts.URL+"/v1/feed?tenant=1", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := bufio.NewScanner(resp.Body)
	for id := 0; id < 2; id++ {
		if !lines.Scan() || !strings.Contains(lines.Text(), fmt.Sprintf(`"id":%d`, id)) {
			t.Fatalf("ack %d: got %q (%v)", id, lines.Text(), lines.Err())
		}
	}

	// Both jobs are acked and the client sends nothing more: the parser is
	// parked in a body read with ReadTimeout (5 s) on the clock.
	start := time.Now()
	drained := make(chan error, 1)
	go func() {
		_, err := s.Drain()
		drained <- err
	}()
	if !lines.Scan() || !strings.Contains(lines.Text(), ErrDraining.Error()) {
		t.Fatalf("trailer: got %q (%v), want the draining error", lines.Text(), lines.Err())
	}
	if lines.Scan() {
		t.Fatalf("line after the trailer: %q", lines.Text())
	}
	if took := time.Since(start); took >= cfg.ReadTimeout {
		t.Fatalf("handler returned after %v; the parser's read ran out its %v deadline instead of being expired", took, cfg.ReadTimeout)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
}
