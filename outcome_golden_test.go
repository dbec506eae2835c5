package repro

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// goldenParams are the per-policy parameters of the cross-policy goldens
// (this file and resize_golden_test.go): each paper algorithm at its own ε
// and the shared power exponent speedscale needs (the others ignore it).
func goldenParams(name string) policy.Params {
	eps := map[string]float64{"flowtime": 0.2, "wflow": 0.25, "speedscale": 0.3}
	return policy.Params{Epsilon: eps[name], Alpha: 2}
}

// TestDenseOutcomeGoldens pins the dense outcome-recording path (the
// engine's flat state/when/machine arrays, materialized into Outcome maps at
// Close) across all five policies at once: a straight full-feed session is
// the golden, and both a batch-split feed — the job slice cut into several
// FeedBatch calls — and a kill-resume run — snapshot after the first cut,
// restore into a fresh session, feed the rest — must reproduce its Outcome
// bit-identically. The conformance suite (internal/policy) covers these
// paths in more depth on the typed results; this test drives them through
// the registry's erased sessions, the form the front door and schedsim use.
func TestDenseOutcomeGoldens(t *testing.T) {
	const m = 4
	cfg := workload.DefaultConfig(600, m, 21)
	cfg.Load = 1.2
	cfg.Weighted = true
	ins := workload.Random(cfg)
	ins.Alpha = 2 // speedscale needs a power exponent; the others ignore it

	// Split points for the batch-split feed and the checkpoint cut; jobs are
	// release-sorted, so any slice boundary is a legal FeedBatch boundary.
	splits := []int{0, 113, 250, 251, 480, len(ins.Jobs)}

	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			e, _ := policy.Lookup(name)
			p := goldenParams(name)

			// Golden: one session, one FeedBatch.
			s, err := e.New(m, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.FeedBatch(ins.Jobs); err != nil {
				t.Fatal(err)
			}
			golden, err := s.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(golden.Completed)+len(golden.Rejected) != len(ins.Jobs) {
				t.Fatalf("golden accounts %d+%d jobs, want %d",
					len(golden.Completed), len(golden.Rejected), len(ins.Jobs))
			}

			// Batch-split: the same jobs across several FeedBatch calls.
			s, err = e.New(m, p)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(splits); i++ {
				if err := s.FeedBatch(ins.Jobs[splits[i-1]:splits[i]]); err != nil {
					t.Fatalf("split %d: %v", i, err)
				}
			}
			split, err := s.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(golden, split) {
				t.Fatal("batch-split outcome diverges from the golden")
			}

			// Kill-resume: checkpoint mid-stream, restore, feed the rest.
			cut := splits[2]
			s, err = e.New(m, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.FeedBatch(ins.Jobs[:cut]); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			rs, err := e.Restore(&buf, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.FeedBatch(ins.Jobs[cut:]); err != nil {
				t.Fatal(err)
			}
			resumed, err := rs.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(golden, resumed) {
				t.Fatal("kill-resume outcome diverges from the golden")
			}
		})
	}
}
