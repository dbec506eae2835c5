package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/sched"
)

// NDJSON trace format: the repo's one instance file, consumable one job at a
// time so streaming schedulers (engine.Session and the scheduler sessions of
// internal/core) never materialize the instance, while ReadInstance
// materializes it for the batch schedulers.
//
// Line 1 is a header object {"machines": M, "alpha": A, "jobs": N}; every
// following non-blank line is one job, in non-decreasing release order:
//
//	{"machines":4,"alpha":2,"jobs":2}
//	{"id":0,"release":0,"weight":1,"proc":[3,1,4,1]}
//	{"id":1,"release":0.5,"weight":2,"proc":[5,9,2,6]}
//
// "jobs" is an optional advisory size hint — the number of job lines the
// producer expects to emit — letting a consumer preallocate per-job storage
// for the whole stream (sessions accept it as Options.SizeHint). It is
// never trusted for correctness: a trace may under- or over-deliver, and
// readers keep validating every line.
//
// Blank lines are ignored, so traces can be concatenated and hand-edited.

// ndjsonHeader is the first line of an NDJSON trace.
type ndjsonHeader struct {
	Machines int     `json:"machines"`
	Alpha    float64 `json:"alpha,omitempty"`
	Jobs     int     `json:"jobs,omitempty"`
}

// maxNDJSONLine bounds one trace line (a job with a very wide Proc vector
// still fits comfortably).
const maxNDJSONLine = 16 << 20

// NDJSONReader streams jobs from an NDJSON trace. Next validates each job
// against the instance rules (sched.ValidateJob) — machine-count matching
// positive finite processing times, defaulted weight, sane release and
// deadline — and enforces non-decreasing releases (within sched.Eps,
// the instance tolerance), so a well-typed stream can be fed straight into
// a scheduler session. By default duplicate-id detection is left to the
// session, which tracks ids anyway, and releases may dip below the watermark
// by sched.Eps (the instance tolerance) — the reader itself holds O(1)
// state. Strict mode (see Strict) hardens both checks at the reader, so a
// hostile or corrupted stream is refused with a positioned error before any
// job of it reaches a session.
type NDJSONReader struct {
	sc       *bufio.Scanner
	machines int
	alpha    float64
	jobs     int
	last     float64     // latest release seen
	line     int         // current physical line, for error messages
	seen     map[int]int // strict mode: job id -> first line, nil otherwise
	// seenRun spares strict mode the map for the usual numbering: ids that
	// arrive as 0, 1, 2, … are remembered as seenRun[id] = first line, and
	// only ids that break the run go into seen.
	seenRun []int
	// slab backs the Proc rows of scanned jobs (see scan.go): len is the
	// committed prefix, owned by jobs already returned; the rest is free.
	slab []float64
}

// NewNDJSONReader parses the header line and returns a streaming reader.
func NewNDJSONReader(r io.Reader) (*NDJSONReader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxNDJSONLine)
	nr := &NDJSONReader{sc: sc, last: math.Inf(-1)}
	for sc.Scan() {
		nr.line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var h ndjsonHeader
		if err := strictUnmarshal(b, &h); err != nil {
			return nil, fmt.Errorf("trace: ndjson line %d: bad header: %w", nr.line, err)
		}
		if h.Machines <= 0 {
			return nil, fmt.Errorf("trace: ndjson line %d: header needs at least one machine, got %d", nr.line, h.Machines)
		}
		if h.Jobs < 0 {
			return nil, fmt.Errorf("trace: ndjson line %d: header declares %d jobs", nr.line, h.Jobs)
		}
		nr.machines = h.Machines
		nr.alpha = h.Alpha
		nr.jobs = h.Jobs
		return nr, nil
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: ndjson: %w", err)
	}
	return nil, fmt.Errorf("trace: ndjson: missing header line")
}

// Machines returns the machine count declared by the header.
func (r *NDJSONReader) Machines() int { return r.machines }

// Alpha returns the power exponent declared by the header (0 for pure
// flow-time traces).
func (r *NDJSONReader) Alpha() float64 { return r.alpha }

// Jobs returns the advisory job count declared by the header, 0 when the
// producer did not know it. It is a preallocation hint only — the stream
// may deliver more or fewer lines — so pass it to size hints, never to
// logic that assumes the stream length.
func (r *NDJSONReader) Jobs() int { return r.jobs }

// Strict hardens the reader for hostile inputs (a network front door
// ingesting untrusted tenant streams): duplicate job ids are rejected at the
// line that repeats them (reporting the line of the first occurrence), and
// releases must be truly non-decreasing — the sched.Eps dip the lenient mode
// tolerates is refused too. Both failures surface as positioned, permanent
// errors from Next before the offending job is returned, so no partially
// validated job ever reaches a session. Strict mode keeps O(jobs) id state;
// enable it before the first Next call.
func (r *NDJSONReader) Strict() *NDJSONReader {
	if r.seen == nil {
		r.seen = make(map[int]int)
	}
	return r
}

// Next returns the next job of the trace, or io.EOF at the end of the
// stream. Any other error is positioned (line number) and permanent.
//
// Canonical lines are decoded by the allocation-free scanner of scan.go,
// their Proc rows carved out of a slab shared by up to slabRows consecutive
// jobs (each row's capacity clipped to its length, so jobs never alias; a
// job that outlives the stream keeps its slab alive). Any line the scanner
// declines goes through encoding/json, which alone defines what is accepted
// and every decode error.
func (r *NDJSONReader) Next() (sched.Job, error) {
	for r.sc.Scan() {
		r.line++
		b := bytes.TrimSpace(r.sc.Bytes())
		if len(b) == 0 {
			continue
		}
		j, scanned := r.scanJob(b)
		if !scanned {
			var jj jobJSON
			if err := strictUnmarshal(b, &jj); err != nil {
				return sched.Job{}, fmt.Errorf("trace: ndjson line %d: bad job: %w", r.line, err)
			}
			j = jj.job()
		}
		if j.Weight == 0 {
			j.Weight = 1
		}
		if err := sched.ValidateJob(&j, r.machines, r.last); err != nil {
			return sched.Job{}, fmt.Errorf("trace: ndjson line %d: %w", r.line, err)
		}
		if r.seen != nil {
			if first, dup := r.firstSeen(j.ID); dup {
				return sched.Job{}, fmt.Errorf("trace: ndjson line %d: duplicate job id %d (first seen on line %d)", r.line, j.ID, first)
			}
			if j.Release < r.last {
				return sched.Job{}, fmt.Errorf("trace: ndjson line %d: job %d released at %v after the stream reached %v (strict mode requires non-decreasing releases)", r.line, j.ID, j.Release, r.last)
			}
			if j.ID == len(r.seenRun) {
				r.seenRun = append(r.seenRun, r.line)
				// Ids parked out of order now extend the run, keeping
				// their first-seen lines, so one swap does not send every
				// later id to the map.
				for len(r.seen) > 0 {
					line, ok := r.seen[len(r.seenRun)]
					if !ok {
						break
					}
					delete(r.seen, len(r.seenRun))
					r.seenRun = append(r.seenRun, line)
				}
			} else {
				r.seen[j.ID] = r.line
			}
		}
		if j.Release > r.last {
			r.last = j.Release
		}
		if scanned {
			r.slab = r.slab[:len(r.slab)+len(j.Proc)] // commit the row
		}
		return j, nil
	}
	if err := r.sc.Err(); err != nil {
		return sched.Job{}, fmt.Errorf("trace: ndjson: %w", err)
	}
	return sched.Job{}, io.EOF
}

// firstSeen reports the line on which strict mode first saw id.
func (r *NDJSONReader) firstSeen(id int) (line int, ok bool) {
	if 0 <= id && id < len(r.seenRun) {
		return r.seenRun[id], true
	}
	line, ok = r.seen[id]
	return line, ok
}

// strictUnmarshal decodes one JSON value rejecting unknown fields and
// trailing garbage.
func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// NDJSONWriter streams jobs to an NDJSON trace.
type NDJSONWriter struct {
	w   *bufio.Writer
	buf []byte // scratch for one job line
}

// NewNDJSONWriter writes the header line and returns a streaming writer.
// Call Flush when done. The header carries no job-count hint — the producer
// of an open-ended stream doesn't know it; use NewNDJSONWriterHint when the
// count is known up front.
func NewNDJSONWriter(w io.Writer, machines int, alpha float64) (*NDJSONWriter, error) {
	return NewNDJSONWriterHint(w, machines, alpha, 0)
}

// NewNDJSONWriterHint is NewNDJSONWriter with an advisory job count in the
// header (0 omits it), letting consumers preallocate for the whole stream.
func NewNDJSONWriterHint(w io.Writer, machines int, alpha float64, jobs int) (*NDJSONWriter, error) {
	if machines <= 0 {
		return nil, fmt.Errorf("trace: ndjson: need at least one machine, got %d", machines)
	}
	if jobs < 0 {
		return nil, fmt.Errorf("trace: ndjson: negative job count hint %d", jobs)
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(ndjsonHeader{Machines: machines, Alpha: alpha, Jobs: jobs}); err != nil {
		return nil, err
	}
	return &NDJSONWriter{w: bw}, nil
}

// Write appends one job line: the bytes json.Encoder produces for the job's
// jobJSON, built with strconv instead of reflection. A NaN or infinite value
// (an infinite deadline is the absent field) is json's error, and nothing is
// written.
func (w *NDJSONWriter) Write(j *sched.Job) error {
	finite := isFinite(j.Release) && isFinite(j.Weight) && (isFinite(j.Deadline) || math.IsInf(j.Deadline, 1))
	for _, p := range j.Proc {
		finite = finite && isFinite(p)
	}
	if !finite {
		// Cold path: let encoding/json name the unsupported value.
		_, err := json.Marshal(wireJob(j))
		return err
	}
	b := append(w.buf[:0], `{"id":`...)
	b = strconv.AppendInt(b, int64(j.ID), 10)
	b = appendFloat(append(b, `,"release":`...), j.Release)
	b = appendFloat(append(b, `,"weight":`...), j.Weight)
	if !math.IsInf(j.Deadline, 1) {
		b = appendFloat(append(b, `,"deadline":`...), j.Deadline)
	}
	b = append(b, `,"proc":`...)
	if j.Proc == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range j.Proc {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, p)
		}
		b = append(b, ']')
	}
	w.buf = append(b, '}', '\n')
	_, err := w.w.Write(w.buf)
	return err
}

func isFinite(f float64) bool { return f-f == 0 }

// appendFloat appends a finite f as encoding/json formats a float64:
// shortest round-trip digits, 'f' form unless |f| < 1e-6 or ≥ 1e21, then 'e'
// form with a two-digit negative exponent's leading zero dropped
// ("e-09" → "e-9").
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// Flush flushes the underlying buffer.
func (w *NDJSONWriter) Flush() error { return w.w.Flush() }
