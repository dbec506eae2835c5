package main

import (
	"bytes"
	"testing"

	"repro/internal/sched"
)

// TestEncodeDeterministic: the same seed yields byte-identical NDJSON for
// every workload's streams, and a different seed does not.
func TestEncodeDeterministic(t *testing.T) {
	a, b, other := allWorkloads(7, true), allWorkloads(7, true), allWorkloads(8, true)
	for k, w := range a {
		for s := range w.streams {
			x, err := encode(w.streams[s], w.args.Alpha, nil)
			if err != nil {
				t.Fatal(err)
			}
			y, _ := encode(b[k].streams[s], w.args.Alpha, nil)
			z, _ := encode(other[k].streams[s], w.args.Alpha, nil)
			if !bytes.Equal(x.buf, y.buf) {
				t.Errorf("%s stream %d: same seed, different bytes", w.name, s)
			}
			if bytes.Equal(x.buf, z.buf) {
				t.Errorf("%s stream %d: seeds 7 and 8 give the same bytes", w.name, s)
			}
			// Encoding into recycled storage changes no byte.
			if again, _ := encode(w.streams[s], w.args.Alpha, z); !bytes.Equal(again.buf, y.buf) || again.jobs() != y.jobs() {
				t.Errorf("%s stream %d: recycled storage changed the encoding", w.name, s)
			}
			if x.jobs() != w.streams[s].N {
				t.Errorf("%s stream %d: %d jobs encoded, want %d", w.name, s, x.jobs(), w.streams[s].N)
			}
			if got := x.lines(0, x.jobs()); len(x.header())+len(got) != len(x.buf) {
				t.Errorf("%s stream %d: header + lines do not cover the buffer", w.name, s)
			}
		}
	}
}

// TestStreamsDecode: what the generators encode, the server's strict reader
// accepts — releases ordered, ids dense — and the decoded jobs equal the
// generated ones bit for bit.
func TestStreamsDecode(t *testing.T) {
	for _, w := range allWorkloads(7, true) {
		for _, spec := range w.streams {
			enc, err := encode(spec, w.args.Alpha, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decode(enc)
			if err != nil {
				t.Fatalf("%s tenant %d: %v", w.name, spec.Tenant, err)
			}
			want := new(arena).collect(spec)
			if len(got) != len(want) {
				t.Fatalf("%s tenant %d: %d jobs decoded, %d generated", w.name, spec.Tenant, len(got), len(want))
			}
			for k := range want {
				if got[k].ID != k || got[k].Release != want[k].Release || got[k].Weight != want[k].Weight ||
					!equalFloats(got[k].Proc, want[k].Proc) || enc.release[k] != want[k].Release {
					t.Fatalf("%s tenant %d job %d: decoded %+v, generated %+v", w.name, spec.Tenant, k, got[k], want[k])
				}
			}
		}
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// TestTrafficShapes checks the properties the workloads are chosen for: the
// 80/20 skew on one clock, bursts sharing a release instant, the heavy tail.
func TestTrafficShapes(t *testing.T) {
	ws := allWorkloads(7, false)
	paced := ws[1]
	big, small := paced.streams[0], paced.streams[1]
	big.N, small.N = 40000, 10000 // the same 4:1 split, a shorter stream
	a, b := new(arena).collect(big), new(arena).collect(small)
	if ratio := a[len(a)-1].Release / b[len(b)-1].Release; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("skewed tenants end at %v and %v on the shared clock, want about equal", a[len(a)-1].Release, b[len(b)-1].Release)
	}
	shared := 0
	for k := 1; k < len(a); k++ {
		if a[k].Release == a[k-1].Release {
			shared++
		}
	}
	if want := len(a) * 9 / 10; shared != want {
		t.Errorf("bursts of 10: %d jobs share their predecessor's release, want %d", shared, want)
	}
	var largest, sum float64
	for k := range a {
		base := a[k].MinProc()
		largest, sum = max(largest, base), sum+base
	}
	if mean := sum / float64(len(a)); largest < 20*mean {
		t.Errorf("Pareto sizes: largest %v against mean %v is no heavy tail", largest, mean)
	}

	all := merged([]int{0, 1}, [][]sched.Job{a, b})
	for k := 1; k < len(all); k++ {
		if all[k].Release < all[k-1].Release {
			t.Fatalf("merged stream out of order at %d", k)
		}
	}
	if all[0].ID>>32 > 1 || len(all) != len(a)+len(b) {
		t.Errorf("merged stream: %d jobs, first gid %#x", len(all), all[0].ID)
	}
}
