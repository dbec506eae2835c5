package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The measuring instrument: a lean wire client for the front door's
// /v1/feed protocol (see internal/chaos/client.go for the protocol). It
// sends pre-encoded NDJSON in batched chunked-transfer writes over one raw
// TCP connection per tenant, parses acks with a hand-rolled scanner, and
// stamps every job's send (or due) and ack time into preallocated arrays —
// so the generator costs a small fraction of what the server does and never
// allocates per job.

// feedPlan says how one pass over the streams is sent.
type feedPlan struct {
	url     string
	streams []*encoded

	// Closed loop (paceNS == 0): each connection writes batch job lines at a
	// time, unpaced, with at most window jobs sent but not yet acked.
	batch  int
	window int

	// Open loop (paceNS > 0): one pacer drives every connection from the
	// common simulated clock; job k of any tenant is due at
	// release·paceNS nanoseconds after the start, whatever the server does.
	paceNS float64

	// stopAfter > 0 arms the crash trigger: onStop runs once, as soon as the
	// connections together have received that many acks.
	stopAfter int64
	onStop    func()

	tr     *tracer
	parent int
}

// tenantFeed is what one connection saw. Times are nanoseconds since the
// feed started; −1 marks "never".
type tenantFeed struct {
	sentNS []int64 // closed loop: start of the write carrying the job; open loop: its due time
	ackNS  []int64 // receipt of the job's ack
	lateNS []int64 // open loop: write start − due time
	status []byte  // 'o' ok, 'r' rej, 'd' dup, 0 none
	extra  int     // acks for an id already acked, or out of range
	done   bool    // the stream ended with {"done":true}
	err    error
}

// feedResult is one pass over all streams.
type feedResult struct {
	tenants     []tenantFeed
	start       time.Time
	firstByteNS int64 // first body byte written (after the NDJSON header)
	lastAckNS   int64
	writeNS     int64 // time inside conn.Write, all connections
	parseNS     int64 // time scanning ack bytes, all connections
	cpu         time.Duration
}

// scanAcks parses the complete ack lines at the front of buf, calling ack
// for each verdict with st 'o' (ok), 'r' (rej) or 'd' (dup). It returns the
// bytes consumed (whole lines only — a partial trailing line stays), whether
// the {"done":true} terminator was seen, and an error for a server error
// line or a malformed one.
func scanAcks(buf []byte, ack func(id int, st byte)) (n int, done bool, err error) {
	const idPrefix, stPrefix = `{"id":`, `,"st":"`
	for {
		nl := bytes.IndexByte(buf[n:], '\n')
		if nl < 0 {
			return n, done, nil
		}
		line := buf[n : n+nl]
		n += nl + 1
		if len(line) == 0 {
			continue
		}
		if len(line) > len(idPrefix) && string(line[:len(idPrefix)]) == idPrefix {
			p, id := len(idPrefix), 0
			for p < len(line) && line[p] >= '0' && line[p] <= '9' {
				id = id*10 + int(line[p]-'0')
				p++
			}
			if p > len(idPrefix) && len(line) > p+len(stPrefix) && string(line[p:p+len(stPrefix)]) == stPrefix {
				if st := line[p+len(stPrefix)]; st == 'o' || st == 'r' || st == 'd' {
					ack(id, st)
					continue
				}
			}
			return n, done, fmt.Errorf("malformed ack line %q", line)
		}
		if string(line) == `{"done":true}` {
			done = true
			continue
		}
		return n, done, fmt.Errorf("server ended the stream: %s", line)
	}
}

// feedConn is one tenant's connection.
type feedConn struct {
	conn    net.Conn
	enc     *encoded
	res     *tenantFeed
	scratch []byte
	acked   atomic.Int64
	wake    chan struct{} // poked by the reader after every read
	gone    chan struct{} // closed when the reader ends
	werr    error         // the sender's error, merged into res.err once both sides are done
	writeNS int64
	parseNS int64
}

// writeChunk sends data as one HTTP chunk in a single write.
func (c *feedConn) writeChunk(data []byte) error {
	c.scratch = strconv.AppendInt(c.scratch[:0], int64(len(data)), 16)
	c.scratch = append(c.scratch, "\r\n"...)
	c.scratch = append(c.scratch, data...)
	c.scratch = append(c.scratch, "\r\n"...)
	t0 := time.Now()
	_, err := c.conn.Write(c.scratch)
	c.writeNS += time.Since(t0).Nanoseconds()
	return err
}

// feed runs one pass: connect every tenant, send its stream per the plan,
// collect acks until each stream ends (or the server dies).
func feed(p feedPlan) (*feedResult, error) {
	host := strings.TrimPrefix(p.url, "http://")
	res := &feedResult{tenants: make([]tenantFeed, len(p.streams)), firstByteNS: -1}
	conns := make([]*feedConn, len(p.streams))
	for t, enc := range p.streams {
		conn, err := net.Dial("tcp", host)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(150 * time.Second)) // a wedged run fails, never hangs
		n := enc.jobs()
		tf := &res.tenants[t]
		tf.sentNS, tf.ackNS, tf.status = filled(n), filled(n), make([]byte, n)
		if p.paceNS > 0 {
			tf.lateNS = make([]int64, n)
		}
		conns[t] = &feedConn{conn: conn, enc: enc, res: tf,
			scratch: make([]byte, 0, 64<<10), wake: make(chan struct{}, 1), gone: make(chan struct{})}
		_, err = fmt.Fprintf(conn, "POST /v1/feed?tenant=%d HTTP/1.1\r\nHost: %s\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n",
			enc.tenant, host)
		if err == nil {
			err = conns[t].writeChunk(enc.header())
		}
		if err != nil {
			return nil, err
		}
	}

	cpu0 := selfUsage().CPU
	start := time.Now()
	res.start = start
	var total atomic.Int64
	var stopOnce sync.Once
	var readers, writers sync.WaitGroup
	for _, c := range conns {
		readers.Add(1)
		go func(c *feedConn) {
			defer readers.Done()
			defer close(c.gone)
			c.res.err = c.readAcks(start, &p, &total, &stopOnce)
		}(c)
	}
	var firstByte atomic.Int64
	firstByte.Store(-1)
	if p.paceNS > 0 {
		if err := pace(conns, start, &p, &firstByte); err != nil {
			for _, c := range conns {
				c.conn.Close()
			}
			readers.Wait()
			return nil, err
		}
	} else {
		for _, c := range conns {
			writers.Add(1)
			go func(c *feedConn) {
				defer writers.Done()
				if c.werr = c.flood(start, &p, &firstByte); c.werr != nil {
					c.conn.Close() // unblock the reader
				}
			}(c)
		}
		writers.Wait()
	}
	readers.Wait()
	res.cpu = selfUsage().CPU - cpu0
	res.firstByteNS = firstByte.Load()
	for _, c := range conns {
		if c.res.err == nil {
			c.res.err = c.werr
		}
		res.writeNS += c.writeNS
		res.parseNS += c.parseNS
		for _, a := range c.res.ackNS {
			res.lastAckNS = max(res.lastAckNS, a)
		}
	}
	return res, nil
}

func filled(n int) []int64 {
	s := make([]int64, n)
	for k := range s {
		s[k] = -1
	}
	return s
}

// flood is the closed-loop sender of one connection.
func (c *feedConn) flood(start time.Time, p *feedPlan, firstByte *atomic.Int64) error {
	n := c.enc.jobs()
	for k := 0; k < n; k += p.batch {
		hi := min(k+p.batch, n)
		for int64(hi)-c.acked.Load() > int64(p.window) {
			select {
			case <-c.wake:
			case <-c.gone:
				return errors.New("connection lost with jobs unsent")
			}
		}
		id := p.tr.begin(p.parent, "client.write")
		now := time.Since(start).Nanoseconds()
		firstByte.CompareAndSwap(-1, now)
		for i := k; i < hi; i++ {
			c.res.sentNS[i] = now
		}
		err := c.writeChunk(c.enc.lines(k, hi))
		p.tr.end(id, "tenant", int64(c.enc.tenant), "first_job", int64(k), "jobs", int64(hi-k))
		if err != nil {
			return err
		}
	}
	_, err := c.conn.Write([]byte("0\r\n\r\n"))
	return err
}

// pace is the open-loop sender: one goroutine, every connection, one clock.
// Each wake-up sends, per tenant, every job that has come due as one chunk;
// a job's latency clock starts at its due time, so a late generator or a
// stalled server both count against the jobs that waited.
func pace(conns []*feedConn, start time.Time, p *feedPlan, firstByte *atomic.Int64) error {
	next := make([]int, len(conns))
	for {
		now := time.Since(start).Nanoseconds()
		nextDue := int64(math.MaxInt64)
		for t, c := range conns {
			rel, k := c.enc.release, next[t]
			hi := k
			for hi < len(rel) && int64(rel[hi]*p.paceNS) <= now {
				hi++
			}
			if hi > k {
				id := p.tr.begin(p.parent, "client.write")
				at := time.Since(start).Nanoseconds()
				firstByte.CompareAndSwap(-1, at)
				for i := k; i < hi; i++ {
					due := int64(rel[i] * p.paceNS)
					c.res.sentNS[i], c.res.lateNS[i] = due, at-due
				}
				err := c.writeChunk(c.enc.lines(k, hi))
				p.tr.end(id, "tenant", int64(c.enc.tenant), "first_job", int64(k), "jobs", int64(hi-k))
				if err != nil {
					return err
				}
				next[t] = hi
			}
			if hi < len(rel) {
				nextDue = min(nextDue, int64(rel[hi]*p.paceNS))
			}
		}
		if nextDue == math.MaxInt64 {
			break
		}
		waitUntil(start, nextDue)
	}
	for _, c := range conns {
		if _, err := c.conn.Write([]byte("0\r\n\r\n")); err != nil {
			return err
		}
	}
	return nil
}

// timerSlack is how far ahead of a due time the pacer stops trusting
// time.Sleep: this kernel's timers tick at about 1.1 ms (a 20 µs sleep takes
// that long), more than the gap between two bursts, so the pacer sleeps only
// to within two ticks of the due time and spins through the rest. The
// protocol allows as many busy goroutines as cores; this is one of them.
const timerSlack = 2200 * time.Microsecond

// waitUntil returns once dueNS nanoseconds have passed since start.
func waitUntil(start time.Time, dueNS int64) {
	if d := time.Duration(dueNS) - time.Since(start) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Since(start).Nanoseconds() < dueNS {
	}
}

// readAcks consumes the response: status line, then ack lines until the
// server closes the stream. Every ack read in one Read call shares that
// call's return time.
func (c *feedConn) readAcks(start time.Time, p *feedPlan, total *atomic.Int64, stopOnce *sync.Once) error {
	resp, err := http.ReadResponse(bufio.NewReaderSize(c.conn, 64<<10), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("server refused stream: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	tf := c.res
	buf := make([]byte, 64<<10)
	have := 0
	var now int64
	got := 0
	onAck := func(id int, st byte) {
		got++
		if id >= len(tf.status) || tf.status[id] != 0 {
			tf.extra++
			return
		}
		tf.status[id], tf.ackNS[id] = st, now
	}
	for {
		id := p.tr.begin(p.parent, "client.ack_wait")
		n, rerr := resp.Body.Read(buf[have:])
		t0 := time.Now()
		now = t0.Sub(start).Nanoseconds()
		have += n
		got = 0
		used, done, perr := scanAcks(buf[:have], onAck)
		have = copy(buf, buf[used:have])
		c.parseNS += time.Since(t0).Nanoseconds()
		p.tr.end(id, "tenant", int64(c.enc.tenant), "acks", int64(got))
		if done {
			tf.done = true
		}
		if got > 0 {
			c.acked.Add(int64(got))
			select {
			case c.wake <- struct{}{}:
			default:
			}
			if p.stopAfter > 0 && total.Add(int64(got)) >= p.stopAfter {
				stopOnce.Do(p.onStop)
			}
		}
		if perr != nil {
			return perr
		}
		if rerr == io.EOF {
			if !tf.done {
				return io.ErrUnexpectedEOF
			}
			return nil
		}
		if rerr != nil {
			return rerr
		}
		if have == len(buf) {
			return errors.New("ack line longer than the read buffer")
		}
	}
}

// httpc is the client for the control endpoints: one connection per request,
// so no idle connection outlives the server generation it talked to.
var httpc = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// drain asks the server for its final report and times the round trip.
func drain(url string) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := httpc.Post(url+"/v1/drain", "", nil)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("drain: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return b, time.Since(start), nil
}
