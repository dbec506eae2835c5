package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// scanVsJSON holds the scanner to its contract on one line: decline, or
// agree with strictUnmarshal on acceptance and on every field bit for bit.
// It reports whether the scanner took the line.
func scanVsJSON(t *testing.T, line []byte, machines int) bool {
	t.Helper()
	r := &NDJSONReader{machines: machines}
	got, ok := r.scanJob(line)
	if !ok {
		return false
	}
	var jj jobJSON
	if err := strictUnmarshal(line, &jj); err != nil {
		t.Fatalf("machines=%d: scanner accepted %q, json refuses it: %v", machines, line, err)
	}
	want := jj.job()
	if got.ID != want.ID {
		t.Fatalf("machines=%d %q: id %d, json %d", machines, line, got.ID, want.ID)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{{"release", got.Release, want.Release}, {"weight", got.Weight, want.Weight}, {"deadline", got.Deadline, want.Deadline}} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("machines=%d %q: %s %v (%#x), json %v (%#x)", machines, line, f.name, f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
		}
	}
	if (jj.Deadline == nil) != (got.Deadline == sched.NoDeadline) {
		t.Fatalf("machines=%d %q: deadline presence differs: scanner %v, json %v", machines, line, got.Deadline, jj.Deadline)
	}
	if (got.Proc == nil) != (want.Proc == nil) || len(got.Proc) != len(want.Proc) {
		t.Fatalf("machines=%d %q: proc %v, json %v", machines, line, got.Proc, want.Proc)
	}
	for i := range got.Proc {
		if math.Float64bits(got.Proc[i]) != math.Float64bits(want.Proc[i]) {
			t.Fatalf("machines=%d %q: proc[%d] %v, json %v", machines, line, i, got.Proc[i], want.Proc[i])
		}
	}
	return true
}

// scanCorpus lists lines at and around the edge of the canonical grammar,
// with whether the scanner takes them at machines = 4. It doubles as
// FuzzScanVsJSON's seed corpus.
var scanCorpus = []struct {
	line string
	take bool
}{
	{`{"id":0,"release":0,"weight":1,"proc":[3,1,4,1]}`, true},
	{`{"proc":[1e-7,2.5E+3,0.1,17],"deadline":9.25,"weight":0.30000000000000004,"release":1.7976931348623157e308,"id":-12}`, true},
	{" \t{ \"id\" : 7 ,\r \"release\" : 1 , \"proc\" : [ 1 , 2 ] } \n", true},
	{`{"id":-0,"release":-0,"weight":-0.0,"proc":[]}`, true},
	{`{"id":999999999999999999}`, true},
	{`{"release":2}`, true},
	{`{"id":1,"proc":[1,2,3,4]}`, true},
	{`{"id":1,"proc":[1,2,3,4,5]}`, false}, // longer than machines
	{`{"id":1,"proc":[0.12345678901234567890123456789012345678]}`, true},
	{`{"ID":3,"release":0,"proc":[1]}`, false},
	{`{"id":1,"id":2}`, false},
	{`{"id":1.0}`, false},
	{`{"id":1e2}`, false},
	{`{"id":1000000000000000000}`, false}, // 19 digits
	{`{"id":-9223372036854775808}`, false},
	{`{"id":01}`, false},
	{`{"id":"1"}`, false},
	{`{"release":1e999}`, false},
	{`{"release":1.}`, false},
	{`{"release":.5}`, false},
	{`{"release":+1}`, false},
	{`{"release":-}`, false},
	{`{"release":1e}`, false},
	{`{"release":0x10}`, false},
	{`{"release":NaN}`, false},
	{`{"id":null}`, false},
	{`{"deadline":null}`, false},
	{`{"proc":null}`, false},
	{`{"proc":[null]}`, false},
	{`{"proc":[1,]}`, false},
	{`{"proc":[1 2]}`, false},
	{`{"proc":[1e999]}`, false},
	{`{"proc":[[1]]}`, false},
	{`{"id":1,}`, false},
	{`{"id":1 "release":2}`, false},
	{`{"id" 1}`, false},
	{`{"nope":1}`, false},
	{`{}`, false},
	{`[]`, false},
	{`null`, false},
	{``, false},
	{`{"id":1`, false},
	{`{"id":1} extra`, false},
	{`{"id":1}}`, false}, // json's More() lets a stray closer through; not canonical
	{`{"id":1}{"id":2}`, false},
	{"\u00a0{\"id\":1}", false}, // not JSON whitespace
}

func TestScanJobGrammar(t *testing.T) {
	for _, tc := range scanCorpus {
		if took := scanVsJSON(t, []byte(tc.line), 4); took != tc.take {
			t.Errorf("%q: scanner took the line = %v, want %v", tc.line, took, tc.take)
		}
		scanVsJSON(t, []byte(tc.line), 1)
	}
}

// TestScanWideRowsTakeJSONPath: a header wider than a slab may hold never
// sizes an allocation; its lines decode (and fail validation) through json.
func TestScanWideRowsTakeJSONPath(t *testing.T) {
	r, err := NewNDJSONReader(strings.NewReader("{\"machines\":1000000000000}\n{\"id\":0,\"release\":0,\"proc\":[1,2]}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "line 2: job 0 has 2 processing times, want 1000000000000") {
		t.Fatalf("err = %v, want the positioned processing-times refusal", err)
	}
	if r.slab != nil {
		t.Fatalf("reader allocated a %d-float slab for an absurd header", cap(r.slab))
	}
}

// canonicalTrace is an n-job, release-ordered NDJSON trace of full-precision
// floats with ids 0..n-1, the shape loadgen and the benchmark feed.
func canonicalTrace(t testing.TB, n, machines int) []byte {
	var buf bytes.Buffer
	if err := WriteInstance(&buf, workload.Random(workload.DefaultConfig(n, machines, 1))); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSlabRowsNeverAlias pins the slab's safety rules: rows of consecutive
// jobs are disjoint with capacity clipped to machines (an append on one
// copies instead of writing into its neighbour), a declined or refused line
// neither consumes a row nor disturbs a committed one, and jobs keep their
// values after the reader moves on to later slabs.
func TestSlabRowsNeverAlias(t *testing.T) {
	const machines = 3
	in := `{"machines":3}
{"id":0,"release":0,"proc":[1,2,3]}
{"id":1,"release":0,"proc":[4,5,6]}
{"id":2,"release":0,"proc":[7,8]}
{"ID":3,"release":0,"proc":[9,9,9]}
{"id":4,"release":0,"proc":[10,11,12]}
`
	r, err := NewNDJSONReader(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if cap(a.Proc) != machines || cap(b.Proc) != machines {
		t.Fatalf("row capacities %d, %d, want %d", cap(a.Proc), cap(b.Proc), machines)
	}
	if grown := append(a.Proc, 99); &grown[0] == &a.Proc[0] || b.Proc[0] != 4 {
		t.Fatalf("append on job 0 wrote into job 1's row: %v", b.Proc)
	}
	if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "line 4: job 2 has 2 processing times") {
		t.Fatalf("short row: err = %v", err)
	}
	committed := len(r.slab)
	c, err := r.Next() // case-folded key: declined, decoded by json off the slab
	if err != nil || c.ID != 3 {
		t.Fatalf("declined line: job %+v, err %v", c, err)
	}
	if len(r.slab) != committed {
		t.Fatalf("a json-decoded job consumed a slab row: %d -> %d", committed, len(r.slab))
	}
	d, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if &d.Proc[0] != &r.slab[committed] {
		t.Fatal("the row after a refused and a declined line is not the next free one")
	}
	for _, chk := range []struct {
		got  []float64
		want [3]float64
	}{{a.Proc, [3]float64{1, 2, 3}}, {b.Proc, [3]float64{4, 5, 6}}, {c.Proc, [3]float64{9, 9, 9}}, {d.Proc, [3]float64{10, 11, 12}}} {
		if [3]float64(chk.got) != chk.want {
			t.Fatalf("row %v, want %v", chk.got, chk.want)
		}
	}

	// Across slabs: every job of a four-slab trace, re-read after the reader
	// has gone on to allocate more.
	const n = 4*slabRows + 17
	raw := canonicalTrace(t, n, machines)
	want, err := ReadInstance(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r, err = NewNDJSONReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var got []sched.Job
	for {
		j, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, j)
	}
	for k, j := range got {
		if fmt.Sprint(j) != fmt.Sprint(want.Jobs[k]) {
			t.Fatalf("job %d = %v, want %v", k, j, want.Jobs[k])
		}
	}
}

// TestStrictNextAllocs is the ingest path's allocation budget: the scanner,
// the slab and Strict()'s id map together stay under 0.05 allocations per
// canonical job (the json path costs 14).
func TestStrictNextAllocs(t *testing.T) {
	const n = 10000
	raw := canonicalTrace(t, n, 8)
	perRun := testing.AllocsPerRun(3, func() {
		r, err := NewNDJSONReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		r.Strict()
		for k := 0; k < n; k++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perJob := perRun / n; perJob > 0.05 {
		t.Fatalf("Strict().Next() costs %.4f allocs/job on canonical lines, want <= 0.05", perJob)
	}
}

func BenchmarkStrictNext(b *testing.B) {
	const n = 10000
	raw := canonicalTrace(b, n, 8)
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for b.Loop() {
		r, err := NewNDJSONReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		r.Strict()
		for k := 0; k < n; k++ {
			if _, err := r.Next(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
