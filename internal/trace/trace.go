// Package trace serializes instances and outcomes to JSON so experiments can
// be generated, archived and replayed by the cmd/tracegen and cmd/schedsim
// tools. Infinite deadlines round-trip as the absent field.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

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

type instanceJSON struct {
	Machines int       `json:"machines"`
	Alpha    float64   `json:"alpha,omitempty"`
	Jobs     []jobJSON `json:"jobs"`
}

// WriteInstance encodes an instance as indented JSON.
func WriteInstance(w io.Writer, ins *sched.Instance) error {
	out := instanceJSON{Machines: ins.Machines, Alpha: ins.Alpha}
	for k := range ins.Jobs {
		out.Jobs = append(out.Jobs, wireJob(&ins.Jobs[k]))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadInstance decodes an instance and validates it.
func ReadInstance(r io.Reader) (*sched.Instance, error) {
	var in instanceJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: decode instance: %w", err)
	}
	ins := &sched.Instance{Machines: in.Machines, Alpha: in.Alpha}
	for k := range in.Jobs {
		j := in.Jobs[k].job()
		if j.Weight == 0 {
			j.Weight = 1
		}
		ins.Jobs = append(ins.Jobs, j)
	}
	ins.SortJobs()
	if err := ins.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return ins, nil
}

// LoadInstance reads an instance from a file.
func LoadInstance(path string) (*sched.Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadInstance(f)
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

// ReadOutcome decodes an outcome.
func ReadOutcome(r io.Reader) (*sched.Outcome, error) {
	var in outcomeJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: decode outcome: %w", err)
	}
	o := sched.NewOutcome()
	o.Intervals = in.Intervals
	for k, v := range in.Completed {
		id, err := parseID(k)
		if err != nil {
			return nil, err
		}
		o.Completed[id] = v
	}
	for k, v := range in.Rejected {
		id, err := parseID(k)
		if err != nil {
			return nil, err
		}
		o.Rejected[id] = v
	}
	for k, v := range in.Assigned {
		id, err := parseID(k)
		if err != nil {
			return nil, err
		}
		o.Assigned[id] = v
	}
	return o, nil
}

func parseID(s string) (int, error) {
	var id int
	if _, err := fmt.Sscanf(s, "%d", &id); err != nil {
		return 0, fmt.Errorf("trace: bad job id %q: %w", s, err)
	}
	return id, nil
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
