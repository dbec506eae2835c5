package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestNDJSONJobsHint pins the header's advisory job count: instance writes
// declare the exact count, open-ended writers omit it (reader sees 0), a
// legacy header without the field still parses, and a negative declaration
// is refused at the header line.
func TestNDJSONJobsHint(t *testing.T) {
	ins := workload.Random(workload.DefaultConfig(17, 3, 5))
	var raw bytes.Buffer
	if err := WriteInstance(&raw, ins); err != nil {
		t.Fatal(err)
	}
	r, err := NewNDJSONReader(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs() != 17 {
		t.Fatalf("instance trace declares %d jobs, want 17", r.Jobs())
	}

	var open bytes.Buffer
	w, err := NewNDJSONWriter(&open, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(open.String(), "jobs") {
		t.Fatalf("open-ended header leaked a jobs field: %q", open.String())
	}
	r, err = NewNDJSONReader(bytes.NewReader(open.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs() != 0 {
		t.Fatalf("open-ended trace declares %d jobs, want 0", r.Jobs())
	}

	r, err = NewNDJSONReader(strings.NewReader("{\"machines\":2}\n"))
	if err != nil {
		t.Fatalf("legacy header without jobs: %v", err)
	}
	if r.Jobs() != 0 {
		t.Fatalf("legacy trace declares %d jobs, want 0", r.Jobs())
	}

	if _, err := NewNDJSONReader(strings.NewReader("{\"machines\":2,\"jobs\":-4}\n")); err == nil {
		t.Fatal("negative jobs hint accepted")
	}
	if _, err := NewNDJSONWriterHint(io.Discard, 2, 0, -1); err == nil {
		t.Fatal("negative jobs hint written")
	}
}

// TestNDJSONWriterMatchesJSON pins the strconv-built job line to the bytes
// json.Encoder produces for the same jobJSON — json's float rule included
// ('f' form unless |x| < 1e-6 or >= 1e21, then 'e' with "e-0N" shortened to
// "e-N"), the omitted infinite deadline, a nil and an empty proc — and to
// json's error, with nothing written, for values JSON cannot carry.
func TestNDJSONWriterMatchesJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125,
		1e-6, 9.999999999999999e-7, 1e-7, 1.5e-9, 1e-10, 1.234e-100, 5e-324,
		1e20, 9.999999999999999e20, 1e21, 1.5e21, 1e22, 1e100, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1 << 53, 1<<53 + 2, 4503599627370497.5}
	rng := rand.New(rand.NewSource(1))
	for len(floats) < 4000 {
		floats = append(floats, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	var jobs []sched.Job
	for k := 0; k+4 <= len(floats); k += 4 {
		j := sched.Job{ID: int(rng.Int63()) - 1<<62, Release: floats[k], Weight: floats[k+1], Deadline: floats[k+2], Proc: floats[k+3 : k+4 : k+4]}
		switch k % 3 {
		case 1:
			j.Deadline = sched.NoDeadline
			j.Proc = floats[k : k+4]
		case 2:
			j.Proc = nil
		}
		jobs = append(jobs, j)
	}
	jobs = append(jobs, sched.Job{ID: math.MinInt64, Proc: []float64{}, Deadline: sched.NoDeadline}, sched.Job{ID: math.MaxInt64, Deadline: sched.NoDeadline})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		jobs = append(jobs,
			sched.Job{Release: bad, Weight: 1, Deadline: 2, Proc: []float64{1}},
			sched.Job{Release: 1, Weight: bad, Deadline: 2, Proc: []float64{1}},
			sched.Job{Release: 1, Weight: 1, Deadline: bad, Proc: []float64{1}}, // +Inf: the absent field
			sched.Job{Release: 1, Weight: 1, Deadline: 2, Proc: []float64{1, bad}})
	}

	var got, want bytes.Buffer
	w, err := NewNDJSONWriter(&got, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got.Reset()
	enc := json.NewEncoder(&want)
	written, refused := 0, 0
	for k := range jobs {
		j := &jobs[k]
		got.Reset()
		want.Reset()
		wantErr := enc.Encode(wireJob(j))
		gotErr := w.Write(j)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("job %+v: err %v, json %v", *j, gotErr, wantErr)
		}
		if got.String() != want.String() {
			t.Fatalf("job %+v:\n got %q\nwant %q", *j, got.String(), want.String())
		}
		if gotErr != nil {
			refused++
		} else {
			written++
		}
	}
	if written < 500 || refused < 11 {
		t.Fatalf("corpus too one-sided: %d lines written, %d refused", written, refused)
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	cfg := workload.DefaultConfig(80, 3, 5)
	cfg.Weighted = true
	ins := workload.Random(cfg)
	ins.Alpha = 2.5

	var buf bytes.Buffer
	if err := WriteInstance(&buf, ins); err != nil {
		t.Fatal(err)
	}
	got, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ins, got) {
		t.Fatal("NDJSON round trip altered the instance")
	}
}

func TestNDJSONStreamingReader(t *testing.T) {
	in := `{"machines":2,"alpha":3}

{"id":4,"release":0,"proc":[1,2]}
{"id":5,"release":1.5,"weight":2,"proc":[3,4]}
`
	r, err := NewNDJSONReader(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if r.Machines() != 2 || r.Alpha() != 3 {
		t.Fatalf("header machines=%d alpha=%v", r.Machines(), r.Alpha())
	}
	j, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != 4 || j.Weight != 1 || j.Deadline != sched.NoDeadline {
		t.Fatalf("first job %+v (weight must default to 1)", j)
	}
	j, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != 5 || j.Weight != 2 || j.Release != 1.5 {
		t.Fatalf("second job %+v", j)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestNDJSONErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty input", "", "missing header"},
		{"bad header json", "{machines}", "bad header"},
		{"zero machines", `{"machines":0}`, "at least one machine"},
		{"unknown header field", `{"machines":1,"bogus":2}`, "bad header"},
		{"malformed job line", "{\"machines\":1}\n{]", "line 2: bad job"},
		{"unknown job field", "{\"machines\":1}\n{\"id\":0,\"release\":0,\"proc\":[1],\"nope\":1}", "line 2"},
		{"trailing garbage", "{\"machines\":1}\n{\"id\":0,\"release\":0,\"proc\":[1]} extra", "line 2"},
		{"wrong proc count", "{\"machines\":2}\n{\"id\":0,\"release\":0,\"proc\":[1]}", "processing times"},
		{"nonpositive proc", "{\"machines\":1}\n{\"id\":0,\"release\":0,\"proc\":[0]}", "invalid p"},
		{"negative release", "{\"machines\":1}\n{\"id\":0,\"release\":-2,\"proc\":[1]}", "invalid release"},
		{"negative weight", "{\"machines\":1}\n{\"id\":0,\"release\":0,\"weight\":-1,\"proc\":[1]}", "weight"},
		{"bad deadline", "{\"machines\":1}\n{\"id\":0,\"release\":3,\"deadline\":2,\"proc\":[1]}", "deadline"},
		{
			"out of order release",
			"{\"machines\":1}\n{\"id\":0,\"release\":5,\"proc\":[1]}\n{\"id\":1,\"release\":1,\"proc\":[1]}",
			"release order",
		},
	}
	for _, tc := range cases {
		r, err := NewNDJSONReader(strings.NewReader(tc.in))
		for err == nil {
			_, err = r.Next()
			if err == io.EOF {
				err = nil
				break
			}
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestNDJSONOutOfOrderPositioned checks the error names the offending line.
func TestNDJSONOutOfOrderPositioned(t *testing.T) {
	in := "{\"machines\":1}\n{\"id\":0,\"release\":5,\"proc\":[1]}\n\n{\"id\":1,\"release\":1,\"proc\":[1]}\n"
	r, err := NewNDJSONReader(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("err = %v, want line 4 position", err)
	}
}

// TestNDJSONStrictRunAbsorbsSwaps pins the strict reader's id state on a
// nearly ordered stream: once the run reaches an id parked out of order, the
// parked ids rejoin the run, so a single early swap leaves no map entries
// behind instead of one per later job.
func TestNDJSONStrictRunAbsorbsSwaps(t *testing.T) {
	var b strings.Builder
	b.WriteString("{\"machines\":1}\n")
	for k := 0; k < 10000; k++ {
		id := k
		switch k {
		case 1:
			id = 2
		case 2:
			id = 1
		}
		fmt.Fprintf(&b, "{\"id\":%d,\"release\":0,\"proc\":[1]}\n", id)
	}
	r, err := NewNDJSONReader(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	r.Strict()
	for err == nil {
		_, err = r.Next()
	}
	if err != io.EOF {
		t.Fatal(err)
	}
	if len(r.seen) != 0 || len(r.seenRun) != 10000 {
		t.Fatalf("%d ids left in the map, run of %d, want 0 and 10000", len(r.seen), len(r.seenRun))
	}
	if line, _ := r.firstSeen(2); line != 3 {
		t.Fatalf("id 2 first seen on line %d, want 3", line)
	}
}

// TestNDJSONStrictMode pins the hardened reader: duplicate job ids and
// sub-Eps release regressions — both legal (or deferred to the session) in
// lenient mode — are refused with positioned errors naming the offending
// line, before the bad job is returned.
func TestNDJSONStrictMode(t *testing.T) {
	const dupTrace = `{"machines":2}
{"id":0,"release":0,"proc":[1,2]}
{"id":1,"release":1,"proc":[1,2]}
{"id":0,"release":2,"proc":[1,2]}
`
	// Lenient: the duplicate passes the reader (sessions catch it later).
	r, err := NewNDJSONReader(strings.NewReader(dupTrace))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("lenient reader job %d: %v", i, err)
		}
	}
	// Strict: refused at line 4, naming line 2.
	r, err = NewNDJSONReader(strings.NewReader(dupTrace))
	if err != nil {
		t.Fatal(err)
	}
	r.Strict()
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("strict reader job %d: %v", i, err)
		}
	}
	_, err = r.Next()
	if err == nil || !strings.Contains(err.Error(), "line 4") || !strings.Contains(err.Error(), "duplicate job id 0") || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("strict duplicate error = %v, want positioned duplicate-id error", err)
	}

	// Ids need not arrive as 0, 1, 2, …: whether a repeat's first sighting
	// was on the run or off it, it is refused naming that line.
	for _, tc := range []struct{ ids, want string }{
		{"0 2 1 2", "line 5: duplicate job id 2 (first seen on line 3)"},
		{"0 2 1 3 1", "line 6: duplicate job id 1 (first seen on line 4)"},
		{"7 -3 0 7", "line 5: duplicate job id 7 (first seen on line 2)"},
		{"-1 0 1 -1", "line 5: duplicate job id -1 (first seen on line 2)"},
		{"1 0 1", "line 4: duplicate job id 1 (first seen on line 2)"},
		{"0 2 1 3 4 2", "line 7: duplicate job id 2 (first seen on line 3)"},
		{"0 3 2 1 4 3", "line 7: duplicate job id 3 (first seen on line 3)"},
	} {
		in := "{\"machines\":1}\n"
		for _, id := range strings.Fields(tc.ids) {
			in += "{\"id\":" + id + ",\"release\":0,\"proc\":[1]}\n"
		}
		r, err := NewNDJSONReader(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		r.Strict()
		for err == nil {
			_, err = r.Next()
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("ids %s: err = %v, want %q", tc.ids, err, tc.want)
		}
	}

	// A release dip within sched.Eps: lenient tolerates, strict refuses.
	const dipTrace = `{"machines":1}
{"id":0,"release":1,"proc":[1]}
{"id":1,"release":0.99999999,"proc":[1]}
`
	r, err = NewNDJSONReader(strings.NewReader(dipTrace))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("lenient reader tolerates an Eps dip, got %v", err)
		}
	}
	r, err = NewNDJSONReader(strings.NewReader(dipTrace))
	if err != nil {
		t.Fatal(err)
	}
	r.Strict()
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "non-decreasing") {
		t.Fatalf("strict regression error = %v, want positioned order error", err)
	}
}
