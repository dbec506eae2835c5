package engine_test

import (
	"bytes"
	"io"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// encodeMachines are the machine counts FuzzSessionEncode draws from: one
// machine (a one-field processing row), and rows that are not a power of two
// long and one that is.
var encodeMachines = []int{1, 3, 8}

// encodeCase builds a session of registry policy pol%5 on encodeMachines[mi%3]
// machines, feeds it the first stop%(n+1) of a 1+n%400-job instance drawn
// from seed (every other job with a deadline when deadlines is set), and
// checks that AppendSnapshot writes the per-field reference's bytes: into a
// fresh buffer with a prefix, again into that buffer once the policy
// section's size is known (exactly the size predicted, in place), and in
// stream form through Snapshot. It returns the snapshot and the jobs fed.
func encodeCase(t *testing.T, seed int64, pol, mi uint8, n, stop uint16, deadlines bool) ([]byte, []sched.Job) {
	t.Helper()
	names := policy.Names()
	entry, _ := policy.Lookup(names[int(pol)%len(names)])
	m := encodeMachines[int(mi)%len(encodeMachines)]
	cfg := workload.DefaultConfig(1+int(n)%400, m, seed)
	cfg.Load = 1.3
	if seed%2 != 0 {
		cfg.Sizes = workload.SizePareto
	}
	cfg.Weighted = seed%3 != 0
	jobs := workload.Random(cfg).Jobs
	if deadlines {
		for k := 0; k < len(jobs); k += 2 {
			jobs[k].Deadline = jobs[k].Release + 3*jobs[k].MinProc()
		}
	}
	jobs = jobs[:int(stop)%(len(jobs)+1)]

	s, err := entry.New(m, policy.Params{Epsilon: 0.2, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.FeedBatch(jobs); err != nil {
		t.Fatal(err)
	}
	want, err := engine.AppendSnapshotPerField(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	got, err := s.AppendSnapshot(append([]byte(nil), prefix...))
	if err != nil || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s, m=%d, %d jobs: first capture differs from the per-field encoding (err %v)", entry.Name, m, len(jobs), err)
	}
	predicted := engine.PredictedSnapshotSize(s)
	again, err := s.AppendSnapshot(got[:0])
	if len(again) != predicted || &again[0] != &got[0] {
		t.Fatalf("%s, m=%d, %d jobs: second capture of %d bytes, %d predicted; moved %v",
			entry.Name, m, len(jobs), len(again), predicted, &again[0] != &got[0])
	}
	if err != nil || !bytes.Equal(again, want) {
		t.Fatalf("%s, m=%d, %d jobs: second capture differs from the per-field encoding (err %v)", entry.Name, m, len(jobs), err)
	}
	var stream bytes.Buffer
	if err := s.Snapshot(&stream); err != nil || !bytes.Equal(stream.Bytes(), want) {
		t.Fatalf("%s, m=%d, %d jobs: Snapshot differs from the per-field encoding (err %v)", entry.Name, m, len(jobs), err)
	}
	return want, jobs
}

// encodeSeeds cross every registry policy with every machine count, on
// instances deep enough into overload that jobs are running, preempted and
// rejected at the stop point.
func encodeSeeds() (seeds [][6]int) {
	for pol := range policy.Names() {
		for mi := range encodeMachines {
			seeds = append(seeds, [6]int{10*pol + mi + 1, pol, mi, 300, 150 + 40*mi, (pol + mi) % 2})
		}
	}
	return seeds
}

// FuzzSessionEncode holds the bulk fixed-record capture to the per-field
// encoder byte for byte, over sessions of all five registry policies stopped
// at random points.
func FuzzSessionEncode(f *testing.F) {
	for _, s := range encodeSeeds() {
		f.Add(int64(s[0]), uint8(s[1]), uint8(s[2]), uint16(s[3]), uint16(s[4]), s[5] == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, pol, mi uint8, n, stop uint16, deadlines bool) {
		encodeCase(t, seed, pol, mi, n, stop, deadlines)
	})
}

// TestSessionEncodeSeedsCover pins what FuzzSessionEncode's seed corpus
// exercises in the encoded bytes: every machine count, jobs with deadlines,
// speedscale intervals at speeds other than 1, and srpt and wsrpt jobs run
// in more than one interval (preempted).
func TestSessionEncodeSeedsCover(t *testing.T) {
	machines := map[int]bool{}
	var deadlines int
	speeds, split := map[string]int{}, map[string]int{}
	for _, s := range encodeSeeds() {
		snap, jobs := encodeCase(t, int64(s[0]), uint8(s[1]), uint8(s[2]), uint16(s[3]), uint16(s[4]), s[5] == 1)
		name := policy.Names()[s[1]]
		machines[len(jobs[0].Proc)] = true
		for _, j := range jobs {
			if !math.IsInf(j.Deadline, 1) {
				deadlines++
			}
		}
		perJob := map[int64]int{}
		for _, iv := range outcomeIntervals(t, snap) {
			if iv.speed != 1 {
				speeds[name]++
			}
			perJob[iv.job]++
		}
		for _, k := range perJob {
			if k > 1 {
				split[name]++
			}
		}
	}
	if len(machines) != len(encodeMachines) || deadlines == 0 {
		t.Errorf("seeds cover machine counts %v and %d jobs with deadlines", machines, deadlines)
	}
	if speeds["speedscale"] == 0 {
		t.Error("no speedscale interval runs at a speed other than 1")
	}
	if split["srpt"] == 0 || split["wsrpt"] == 0 {
		t.Errorf("preempted jobs: srpt %d, wsrpt %d; want some of each", split["srpt"], split["wsrpt"])
	}
}

type encodedInterval struct {
	job   int64
	speed float64
}

// outcomeIntervals decodes the interval log of a session snapshot's OUTC
// section.
func outcomeIntervals(t *testing.T, snap []byte) []encodedInterval {
	t.Helper()
	sr, err := snapshot.NewReader(snapshot.InPlace(snap))
	if err != nil {
		t.Fatal(err)
	}
	for {
		tag, d, err := sr.Next()
		if err == io.EOF {
			t.Fatal("snapshot has no OUTC section")
		}
		if err != nil {
			t.Fatal(err)
		}
		if tag != "OUTC" {
			continue
		}
		ivs := make([]encodedInterval, d.Count(36))
		for k := range ivs {
			ivs[k].job = d.I64()
			d.U32()
			d.F64()
			d.F64()
			ivs[k].speed = d.F64()
		}
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		return ivs
	}
}
