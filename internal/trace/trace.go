// Package trace serializes instances and outcomes for the cmd/tracegen and
// cmd/schedsim tools. An instance file is an NDJSON trace (ndjson.go), the
// online model's arrival sequence, read by batch and streaming consumers
// alike; outcomes are indented JSON. Infinite deadlines are absent fields.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/sched"
)

// jobJSON mirrors sched.Job with an optional deadline.
type jobJSON struct {
	ID       int       `json:"id"`
	Release  float64   `json:"release"`
	Weight   float64   `json:"weight"`
	Deadline *float64  `json:"deadline,omitempty"`
	Proc     []float64 `json:"proc"`
}

// job converts the wire form: an absent deadline is sched.NoDeadline. (The
// weight default is the reader's, applied after decoding.)
func (jj *jobJSON) job() sched.Job {
	j := sched.Job{ID: jj.ID, Release: jj.Release, Weight: jj.Weight, Proc: jj.Proc, Deadline: sched.NoDeadline}
	if jj.Deadline != nil {
		j.Deadline = *jj.Deadline
	}
	return j
}

// wireJob is the inverse: an infinite deadline is the absent field.
func wireJob(j *sched.Job) jobJSON {
	jj := jobJSON{ID: j.ID, Release: j.Release, Weight: j.Weight, Proc: j.Proc}
	if !math.IsInf(j.Deadline, 1) {
		d := j.Deadline
		jj.Deadline = &d
	}
	return jj
}

// WriteInstance encodes an instance as an NDJSON trace whose header carries
// the exact job count as the advisory size hint.
func WriteInstance(w io.Writer, ins *sched.Instance) error {
	nw, err := NewNDJSONWriterHint(w, ins.Machines, ins.Alpha, len(ins.Jobs))
	if err != nil {
		return err
	}
	for k := range ins.Jobs {
		if err := nw.Write(&ins.Jobs[k]); err != nil {
			return err
		}
	}
	return nw.Flush()
}

// ReadInstance materializes an NDJSON trace into a validated instance, jobs
// in file order. A release out of order is the reader's positioned error; a
// repeated id is Validate's.
func ReadInstance(r io.Reader) (*sched.Instance, error) {
	nr, err := NewNDJSONReader(r)
	if err != nil {
		return nil, err
	}
	ins := &sched.Instance{Machines: nr.Machines(), Alpha: nr.Alpha()}
	for {
		j, err := nr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		ins.Jobs = append(ins.Jobs, j)
	}
	if err := ins.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return ins, nil
}

type outcomeJSON struct {
	Intervals []sched.Interval   `json:"intervals"`
	Completed map[string]float64 `json:"completed"`
	Rejected  map[string]float64 `json:"rejected"`
	Assigned  map[string]int     `json:"assigned"`
}

// WriteOutcome encodes an outcome as indented JSON (job-id keys as strings,
// the JSON-native map form).
func WriteOutcome(w io.Writer, o *sched.Outcome) error {
	out := outcomeJSON{
		Intervals: sortedIntervals(o.Intervals),
		Completed: make(map[string]float64, len(o.Completed)),
		Rejected:  make(map[string]float64, len(o.Rejected)),
		Assigned:  make(map[string]int, len(o.Assigned)),
	}
	for id, v := range o.Completed {
		out.Completed[fmt.Sprint(id)] = v
	}
	for id, v := range o.Rejected {
		out.Rejected[fmt.Sprint(id)] = v
	}
	for id, v := range o.Assigned {
		out.Assigned[fmt.Sprint(id)] = v
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadOutcome decodes an outcome. Job-id keys must be canonical decimal, as
// WriteOutcome writes them, so that two keys can never name one id.
func ReadOutcome(r io.Reader) (*sched.Outcome, error) {
	var in outcomeJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: decode outcome: %w", err)
	}
	o := sched.NewOutcome()
	o.Intervals = in.Intervals
	if err := byID(in.Completed, o.Completed); err != nil {
		return nil, err
	}
	if err := byID(in.Rejected, o.Rejected); err != nil {
		return nil, err
	}
	if err := byID(in.Assigned, o.Assigned); err != nil {
		return nil, err
	}
	return o, nil
}

// byID copies in into out keyed by job id, refusing a key that is not the
// canonical decimal form of its id: " 12", "012", "+12", "12abc", "1e3" and
// "0x1F" are not ids.
func byID[V any](in map[string]V, out map[int]V) error {
	for k, v := range in {
		id, err := strconv.Atoi(k)
		if err != nil || strconv.Itoa(id) != k {
			return fmt.Errorf("trace: bad job id %q: not a canonical decimal integer", k)
		}
		out[id] = v
	}
	return nil
}

func sortedIntervals(ivs []sched.Interval) []sched.Interval {
	out := append([]sched.Interval(nil), ivs...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		return out[a].Job < out[b].Job
	})
	return out
}
