package main

import (
	"bufio"
	"io"
	"net"
	"net/http/httputil"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestScanAcks(t *testing.T) {
	type ack struct {
		id int
		st byte
	}
	const whole = -1 // every byte of the input is consumed
	for _, c := range []struct {
		name    string
		in      string
		acks    []ack
		used    int
		done    bool
		wantErr string
	}{
		{"verdicts", "{\"id\":0,\"st\":\"ok\"}\n{\"id\":17,\"st\":\"rej\"}\n{\"id\":4294967295,\"st\":\"dup\"}\n",
			[]ack{{0, 'o'}, {17, 'r'}, {4294967295, 'd'}}, whole, false, ""},
		{"partial tail stays", "{\"id\":3,\"st\":\"ok\"}\n{\"id\":4,\"st\":\"o", []ack{{3, 'o'}}, 19, false, ""},
		{"nothing complete", "{\"id\":3,", nil, 0, false, ""},
		{"done", "{\"id\":9,\"st\":\"dup\"}\n{\"done\":true}\n", []ack{{9, 'd'}}, whole, true, ""},
		{"blank lines", "\n{\"id\":1,\"st\":\"ok\"}\n\n", []ack{{1, 'o'}}, whole, false, ""},
		{"server error", "{\"id\":1,\"st\":\"ok\"}\n{\"error\":\"front: server is draining\"}\n", []ack{{1, 'o'}}, whole, false, "draining"},
		{"unknown status", "{\"id\":1,\"st\":\"maybe\"}\n", nil, whole, false, "malformed"},
		{"no id", "{\"id\":,\"st\":\"ok\"}\n", nil, whole, false, "malformed"},
	} {
		var got []ack
		used, done, err := scanAcks([]byte(c.in), func(id int, st byte) { got = append(got, ack{id, st}) })
		if c.used == whole {
			c.used = len(c.in)
		}
		if used != c.used || done != c.done {
			t.Errorf("%s: used %d done %v, want %d %v", c.name, used, done, c.used, c.done)
		}
		if (err == nil) != (c.wantErr == "") || (err != nil && !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("%s: err %v, want %q", c.name, err, c.wantErr)
		}
		if len(got) != len(c.acks) {
			t.Errorf("%s: acks %v, want %v", c.name, got, c.acks)
			continue
		}
		for k := range got {
			if got[k] != c.acks[k] {
				t.Errorf("%s: ack %d = %v, want %v", c.name, k, got[k], c.acks[k])
			}
		}
	}
}

// TestPaceAccounting drives the open-loop sender against a peer that only
// reads: every job's latency clock must start at its due time on the common
// clock, lateness is write start minus due and never negative, no job is
// written before it is due, and the chunked body carries exactly the
// stream's bytes.
func TestPaceAccounting(t *testing.T) {
	w := allWorkloads(7, true)[1] // wire_paced, quick size
	streams, err := prepare(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	paceNS := w.paceNS()
	plan := &feedPlan{paceNS: paceNS}
	conns := make([]*feedConn, len(streams))
	bodies := make([]chan []byte, len(streams))
	for k, enc := range streams {
		client, server := net.Pipe()
		defer client.Close()
		n := enc.jobs()
		conns[k] = &feedConn{conn: client, enc: enc, scratch: make([]byte, 0, 1<<16),
			res: &tenantFeed{sentNS: filled(n), lateNS: make([]int64, n)}}
		bodies[k] = make(chan []byte, 1)
		go func(out chan<- []byte) {
			// The peer un-chunks what the sender framed.
			body, _ := io.ReadAll(httputil.NewChunkedReader(bufio.NewReader(server)))
			out <- body
		}(bodies[k])
	}
	var first atomic.Int64
	first.Store(-1)
	start := time.Now()
	if err := pace(conns, start, plan, &first); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Nanoseconds()
	for k, c := range conns {
		enc := streams[k]
		if body := <-bodies[k]; string(body) != string(enc.lines(0, enc.jobs())) {
			t.Errorf("tenant %d: the peer received %d body bytes, the stream has %d", k, len(body), len(enc.lines(0, enc.jobs())))
		}
		for j := 0; j < enc.jobs(); j++ {
			due := int64(enc.release[j] * paceNS)
			if c.res.sentNS[j] != due {
				t.Fatalf("tenant %d job %d: latency clock starts at %d, due at %d", k, j, c.res.sentNS[j], due)
			}
			if late := c.res.lateNS[j]; late < 0 || due+late > elapsed {
				t.Fatalf("tenant %d job %d: lateness %d with due %d in a %d ns run", k, j, late, due, elapsed)
			}
		}
	}
	last := streams[0].release[streams[0].jobs()-1] * paceNS
	if float64(elapsed) < last {
		t.Errorf("the pacer finished in %d ns, before the last job was due (%v)", elapsed, last)
	}
	if got := first.Load(); got < 0 || got > elapsed {
		t.Errorf("first byte at %d", got)
	}
	want := float64(w.jobs()) / w.rate * 1e9 // the aggregate rate is what the workload names
	if span := last; span < 0.8*want || span > 1.2*want {
		t.Errorf("streams span %v ns of wall clock, want about %v", span, want)
	}
}
