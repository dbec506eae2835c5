package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/obs"
)

// env is where a run happens: the output directory and the server binary
// ("" in quick mode: in-process server).
type env struct {
	outDir string
	bin    string
	tr     *tracer // nil: untraced
}

// wireRep is one repetition of a wire workload against a fresh server
// process: everything the client and the operating system saw.
type wireRep struct {
	jobs      int           // distinct jobs submitted
	wall      time.Duration // first body byte → last ack (through kill, resume and replay when durable)
	serverCPU time.Duration // utime+stime at exit, every generation summed
	userCPU   time.Duration
	peakRSSMB float64 // max over generations
	threads   int
	start     time.Duration // fresh server: exec → /healthz 200
	resume    time.Duration // durable: exec of -resume → /healthz 200
	drain     time.Duration // POST /v1/drain → report received
	report    []byte

	lat  []int64 // sorted, ns: ack received − (write start | due time), every acked job of every pass
	late []int64 // sorted, ns: open loop write start − due time

	acks      map[byte]int // final pass, by status
	missing   int          // jobs without a verdict after the final pass
	extraAcks int          // acks for unknown or already-acked ids
	problems  []string     // anything else that must not happen

	clientCPU        time.Duration
	writeNS, parseNS int64
	dirBytes         int64 // size of the checkpoint lineage directory (durable)
	scrapeDur        time.Duration
	scraped          obs.Scrape // telemetry runs: /metrics after the last ack
}

// runWireRep starts a server, feeds the streams the workload's way, drains,
// and collects. telemetry turns the server's -debug-addr on (traced runs).
func runWireRep(e *env, w *workload, streams []*encoded, telemetry bool, parent int) (*wireRep, error) {
	r := &wireRep{jobs: w.jobs(), acks: map[byte]int{}}
	args := w.args
	args.Telemetry = telemetry
	if w.killAt > 0 {
		dir, err := os.MkdirTemp(e.outDir, "ck-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		args.Checkpoint = filepath.Join(dir, "s.ck")
	}

	id := e.tr.begin(parent, "server.start")
	srv, err := startServer(e.bin, args)
	e.tr.end(id)
	if err != nil {
		return nil, err
	}
	r.start = srv.startDur
	plan := feedPlan{url: srv.url, streams: streams, batch: floodBatch, window: floodWindow,
		paceNS: w.paceNS(), tr: e.tr, parent: parent}

	var first *feedResult
	if w.killAt > 0 {
		plan.stopAfter = int64(w.killAt)
		killed := false
		plan.onStop = func() {
			id := e.tr.begin(parent, "server.kill")
			srv.crash()
			e.tr.end(id)
			killed = true // read after feed returns: its goroutines have ended by then
		}
		id := e.tr.begin(parent, "client.feed")
		plan.parent = id
		first, err = feed(plan)
		e.tr.end(id)
		if err != nil {
			srv.crash()
			srv.reap()
			return nil, err
		}
		u, err := srv.reap()
		if err != nil {
			return nil, err
		}
		r.addUsage(u)
		if !killed {
			r.problems = append(r.problems, fmt.Sprintf("the crash trigger (%d acks) never fired", w.killAt))
		}
		r.collect(first, false)

		args.Resume = true
		id = e.tr.begin(parent, "server.resume")
		srv, err = startServer(e.bin, args)
		e.tr.end(id)
		if err != nil {
			return nil, err
		}
		r.resume = srv.startDur
		plan.url, plan.stopAfter, plan.onStop = srv.url, 0, nil
	}

	name := "client.feed"
	if first != nil {
		name = "client.replay"
	}
	id = e.tr.begin(parent, name)
	plan.parent = id
	last, err := feed(plan)
	e.tr.end(id, "jobs", int64(r.jobs))
	if err != nil {
		srv.crash()
		srv.reap()
		return nil, err
	}
	r.collect(last, true)
	if first == nil {
		first = last
	}
	r.wall = last.start.Add(time.Duration(last.lastAckNS)).Sub(first.start.Add(time.Duration(first.firstByteNS)))
	slices.Sort(r.lat)
	slices.Sort(r.late)

	if telemetry {
		t0 := time.Now()
		resp, err := httpc.Get(srv.debugURL + "/metrics")
		if err == nil {
			r.scraped, err = obs.ParseText(resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			r.problems = append(r.problems, "scraping /metrics: "+err.Error())
		}
		r.scrapeDur = time.Since(t0)
	}

	id = e.tr.begin(parent, "server.drain")
	r.report, r.drain, err = drain(srv.url)
	e.tr.end(id, "report_bytes", int64(len(r.report)))
	if err != nil {
		srv.crash()
		srv.reap()
		return nil, err
	}
	r.threads = srv.sample()
	if args.Checkpoint != "" {
		r.dirBytes = dirSize(filepath.Dir(args.Checkpoint))
	}
	u, err := srv.stop()
	if err != nil {
		return nil, err
	}
	r.addUsage(u)
	return r, nil
}

func (r *wireRep) addUsage(u usage) {
	r.serverCPU += u.CPU
	r.userCPU += u.User
	r.peakRSSMB = max(r.peakRSSMB, u.PeakRSSMB)
}

// collect folds one pass into the repetition. Only the final pass must be
// complete: a pass cut short by the crash trigger contributes its latency
// samples and nothing else.
func (r *wireRep) collect(f *feedResult, final bool) {
	r.clientCPU += f.cpu
	r.writeNS += f.writeNS
	r.parseNS += f.parseNS
	for t := range f.tenants {
		tf := &f.tenants[t]
		for k, a := range tf.ackNS {
			if a >= 0 {
				r.lat = append(r.lat, a-tf.sentNS[k])
			}
		}
		r.late = append(r.late, tf.lateNS...)
		if !final {
			continue
		}
		r.extraAcks += tf.extra
		for _, st := range tf.status {
			if st == 0 {
				r.missing++
			} else {
				r.acks[st]++
			}
		}
		switch {
		case tf.err != nil && !errors.Is(tf.err, io.EOF):
			r.problems = append(r.problems, fmt.Sprintf("tenant %d stream: %v", t, tf.err))
		case !tf.done:
			r.problems = append(r.problems, fmt.Sprintf("tenant %d stream ended without {\"done\":true}", t))
		}
	}
}

// dirSize sums the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
