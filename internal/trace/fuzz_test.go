package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// FuzzNDJSON ensures the streaming reader never panics and only yields jobs
// that satisfy the model invariants (positive finite processing times,
// positive weight, monotone releases), so a fuzzer-crafted trace can never
// push an invalid job into a scheduler session.
func FuzzNDJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteInstance(&buf, workload.Random(workload.DefaultConfig(5, 2, 1))); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("{\"machines\":1}\n{\"id\":0,\"release\":0,\"proc\":[1]}\n")
	f.Add("{\"machines\":2,\"alpha\":2}\n\n{\"id\":0,\"release\":0,\"proc\":[1,2]}\n{\"id\":1,\"release\":3,\"proc\":[4,5]}\n")
	f.Add("{\"machines\":0}\n")
	f.Add("{\"machines\":1}\n{\"id\":0,\"release\":5,\"proc\":[1]}\n{\"id\":1,\"release\":1,\"proc\":[1]}\n")
	f.Add("{\"machines\":1}\n{\"id\":0,\"release\":0,\"proc\":[0]}\n")
	f.Add("{\"machines\":1}\n{\"id\":0,\"release\":0,\"deadline\":-1,\"proc\":[1]}\n")
	f.Add("{\"machines\":1e309}\n")
	f.Add("]]]\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		r, err := NewNDJSONReader(strings.NewReader(data))
		if err != nil {
			return
		}
		last := math.Inf(-1)
		for {
			j, err := r.Next()
			if err != nil {
				return // io.EOF or a positioned decode error; both fine
			}
			if len(j.Proc) != r.Machines() {
				t.Fatalf("job %d has %d processing times, header says %d", j.ID, len(j.Proc), r.Machines())
			}
			for i, p := range j.Proc {
				if !(p > 0) || math.IsInf(p, 0) || math.IsNaN(p) {
					t.Fatalf("reader yielded invalid p[%d]=%v", i, p)
				}
			}
			if j.Weight <= 0 {
				t.Fatalf("reader yielded non-positive weight %v", j.Weight)
			}
			if j.Release < last-sched.Eps || j.Release < 0 || math.IsNaN(j.Release) {
				t.Fatalf("reader yielded out-of-order or invalid release %v after %v", j.Release, last)
			}
			if j.Release > last {
				last = j.Release
			}
		}
	})
}

// FuzzScanVsJSON is the differential half: on arbitrary bytes, for a narrow
// and a wider machine count, the job-line scanner either declines or agrees
// with strictUnmarshal — the oracle that defines the format — on acceptance
// and on every decoded field bit for bit. Seeds: scanCorpus, the edge of the
// canonical grammar from both sides.
func FuzzScanVsJSON(f *testing.F) {
	for _, tc := range scanCorpus {
		f.Add([]byte(tc.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		scanVsJSON(t, line, 1)
		scanVsJSON(t, line, 4)
	})
}
