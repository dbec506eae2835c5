package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/front"
	"repro/internal/sched"
	"repro/internal/trace"
)

// decode turns a tenant's pre-encoded bytes back into jobs through the
// reader the server uses, so in-process runs see exactly what the wire
// delivers (same float parses, same defaulted weights).
func decode(e *encoded) ([]sched.Job, error) {
	nr, err := trace.NewNDJSONReader(bytes.NewReader(e.buf))
	if err != nil {
		return nil, err
	}
	nr = nr.Strict()
	jobs := make([]sched.Job, 0, e.jobs())
	for {
		j, err := nr.Next()
		if err == io.EOF {
			return jobs, nil
		}
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
}

// merged is the sequence the front door's sequencer feeds the fleet: the
// k-way merge of the tenant streams under (release, tenant), ids widened to
// gid = tenant<<32 | local. Proc slices are shared with the inputs.
func merged(tenants []int, jobs [][]sched.Job) []sched.Job {
	n := 0
	for _, js := range jobs {
		n += len(js)
	}
	out := make([]sched.Job, 0, n)
	next := make([]int, len(jobs))
	for len(out) < n {
		best := -1
		for t, js := range jobs {
			if next[t] == len(js) {
				continue
			}
			if best < 0 || js[next[t]].Release < jobs[best][next[best]].Release ||
				(js[next[t]].Release == jobs[best][next[best]].Release && tenants[t] < tenants[best]) {
				best = t
			}
		}
		j := jobs[best][next[best]]
		j.ID |= tenants[best] << 32
		out = append(out, j)
		next[best]++
	}
	return out
}

// frontRun is one pass of tenant streams through an in-process front.Server.
type frontRun struct {
	report []byte        // the drained report, encoded as the wire encodes it
	wall   time.Duration // first push → last ack
	cpu    time.Duration // this process, over the same interval
	drain  time.Duration
	acks   map[byte]int
	lat    []int64 // stamped runs: sorted push → ack, ns
}

// runFront pushes each tenant's jobs from its own goroutine (with the
// concurrent ack consumer the Stream contract requires), closes the
// streams, drains, and returns the report bytes. limit[t] > 0 pushes only
// that tenant's first limit[t] jobs. stamp records per-job push and ack
// times.
func runFront(srv *front.Server, tenants []int, jobs [][]sched.Job, limit []int, stamp bool) (*frontRun, error) {
	type side struct {
		push, ack []int64
		counts    map[byte]int
		err       error
	}
	sides := make([]side, len(tenants))
	streams := make([]*front.Stream, len(tenants))
	for t, ten := range tenants {
		st, err := srv.OpenStream(ten)
		if err != nil {
			srv.Drain()
			return nil, err
		}
		streams[t] = st
	}
	cpu0 := selfUsage().CPU
	start := time.Now()
	var wg sync.WaitGroup
	for t := range tenants {
		js := jobs[t]
		if limit != nil && limit[t] > 0 {
			js = js[:limit[t]]
		}
		sd, st := &sides[t], streams[t]
		sd.counts = map[byte]int{}
		if stamp {
			sd.push, sd.ack = make([]int64, len(js)), make([]int64, len(js))
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer st.CloseSend()
			for k := range js {
				if stamp {
					sd.push[k] = time.Since(start).Nanoseconds()
				}
				if err := st.Push(js[k]); err != nil {
					sd.err = err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for a := range st.Acks() {
				sd.counts[a.St[0]]++
				if stamp && a.ID < len(sd.ack) {
					sd.ack[a.ID] = time.Since(start).Nanoseconds()
				}
			}
		}()
	}
	wg.Wait()
	r := &frontRun{wall: time.Since(start), cpu: selfUsage().CPU - cpu0, acks: map[byte]int{}}
	t0 := time.Now()
	rep, err := srv.Drain()
	r.drain = time.Since(t0)
	if err != nil {
		return nil, err
	}
	for t := range sides {
		if sides[t].err != nil {
			return nil, fmt.Errorf("tenant %d: %w", tenants[t], sides[t].err)
		}
		if err := streams[t].Err(); err != nil {
			return nil, fmt.Errorf("tenant %d: %w", tenants[t], err)
		}
		for st, n := range sides[t].counts {
			r.acks[st] += n
		}
		for k := range sides[t].push {
			r.lat = append(r.lat, sides[t].ack[k]-sides[t].push[k])
		}
	}
	slices.Sort(r.lat)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rep); err != nil {
		return nil, err
	}
	r.report = buf.Bytes()
	return r, nil
}
