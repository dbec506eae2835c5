package speedscale

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// deepInstance is an overloaded weighted instance whose pending lists grow
// deep: 16 machines at load 1.3 with heavy-tailed Pareto sizes, the shape
// where λ_ij's suffix weights span many entries.
func deepInstance(n int, seed int64, alpha float64) *sched.Instance {
	cfg := workload.DefaultConfig(n, 16, seed)
	cfg.Weighted = true
	cfg.Load = 1.3
	cfg.Sizes = workload.SizePareto
	cfg.MaxSize = 100
	ins := workload.Random(cfg)
	ins.Alpha = alpha
	return ins
}

// resultDigest hashes a Result canonically: every job in id order with its
// verdict, instant and machine, the interval log as recorded, the rejection
// tallies and — under TrackDual — every λ_j in id order, so a single-bit
// change in any dispatch-time λ_ij, speed or decision moves the digest.
func resultDigest(ins *sched.Instance, res *Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	ids := make([]int, len(ins.Jobs))
	for k := range ins.Jobs {
		ids[k] = ins.Jobs[k].ID
	}
	slices.Sort(ids)
	o := res.Outcome
	for _, id := range ids {
		t, done := o.Completed[id]
		if !done {
			t = o.Rejected[id]
		}
		verdict := uint64(0)
		if done {
			verdict = 1
		}
		put(uint64(id))
		put(math.Float64bits(t))
		put(uint64(o.Assigned[id])<<1 | verdict)
	}
	for _, iv := range o.Intervals {
		put(uint64(iv.Job))
		put(uint64(iv.Machine))
		put(math.Float64bits(iv.Start))
		put(math.Float64bits(iv.End))
		put(math.Float64bits(iv.Speed))
	}
	put(uint64(res.Rejections))
	put(math.Float64bits(res.RejectedWeight))
	if res.Dual != nil {
		for _, id := range ids {
			put(math.Float64bits(res.Dual.Lambda[id]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestOutcomeDigests pins §3's outcomes bit for bit on deep pending lists,
// at α = 1.5 and 3 (λ_ij's general Pow path) and α = 2 (the square-root
// path), through a batch Run with the dual's λ_j recorded and through a
// streaming session checkpointed and restored mid-stream. Any change to the
// dispatch, speed or rejection arithmetic — a re-associated float sum, a
// different root — moves a digest.
func TestOutcomeDigests(t *testing.T) {
	const n = 3000
	for _, tc := range []struct {
		alpha float64
		want  string
	}{
		{1.5, "3882bb83bf76a3e1"},
		{2, "36a4eb7ca57f57fc"},
		{3, "c9238383c77f6fae"},
	} {
		ins := deepInstance(n, 11, tc.alpha)
		opt := Options{Epsilon: 0.3, TrackDual: true}
		res := mustRun(t, ins, opt)
		got := resultDigest(ins, res)
		if got != tc.want {
			t.Errorf("α=%v: batch digest %s, want %s", tc.alpha, got, tc.want)
		}

		opt.Alpha = tc.alpha
		s, err := NewSession(ins.Machines, opt)
		if err != nil {
			t.Fatal(err)
		}
		cut := n / 2
		if err := s.FeedBatch(ins.Jobs[:cut]); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Restore(&buf, opt)
		if err != nil {
			t.Fatalf("α=%v: restore: %v", tc.alpha, err)
		}
		if err := r.FeedBatch(ins.Jobs[cut:]); err != nil {
			t.Fatal(err)
		}
		resumed, err := r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(ins, resumed); got != tc.want {
			t.Errorf("α=%v: restored digest %s, want %s", tc.alpha, got, tc.want)
		}
	}
}
