package repro

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/workload"
)

// openResizeSession constructs one shard session for the named policy.
// Parameters mirror the front door's defaults so the goldens here and the
// serving path exercise the same session shapes.
func openResizeSession(name string, machines int) (*engine.Session, error) {
	e, ok := policy.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown policy %q", name)
	}
	return e.New(machines, goldenParams(name))
}

// cutSegments slices a release-ordered stream into n contiguous segments.
// Each segment is itself release-ordered, so it is a legal suffix stream for
// a fleet born at the segment boundary.
func cutSegments(jobs []sched.Job, n int) [][]sched.Job {
	segs := make([][]sched.Job, n)
	per := len(jobs) / n
	for i := range segs {
		lo, hi := i*per, (i+1)*per
		if i == n-1 {
			hi = len(jobs)
		}
		segs[i] = jobs[lo:hi]
	}
	return segs
}

// TestResizeFleetGoldens pins the resize-equivalence contract of
// engine.ResizeFleet across all five policies: after resizing a fleet from
// K to K′, the post-resize
// segment must play out bit-identically to a fresh fleet born at K′ and fed
// only that segment. The argument is by construction — retire closes every
// old session (its outcome is sealed; no future job routes to it), and the
// new fleet is indistinguishable from a K′-born one — and this test is the
// executable form of that argument: per-shard Outcomes are compared with
// reflect.DeepEqual, so any hidden state leaking across the resize boundary
// (a shared pool, a dirty event queue, a stale route) breaks the golden.
//
// Chains cover grow (2→3), shrink (3→2), the no-op retire-and-rebuild at
// the same count (2→2), and a grow-then-shrink chain (2→3→2) whose middle
// segment checks that equivalence composes. The front-door layer on top
// (internal/front resize tests) adds crash/recovery on the same contract.
func TestResizeFleetGoldens(t *testing.T) {
	const machines = 3
	cfg := workload.DefaultConfig(900, machines, 33)
	cfg.Load = 1.3
	cfg.Weighted = true
	ins := workload.Random(cfg)
	ins.Alpha = 2
	jobs := ins.Jobs

	// Tenant-affine route over the job id: the same pure function re-splits
	// over whatever lane count the live fleet has, exactly as the front door
	// uses it across a resize.
	route := engine.RouteByTenant(func(j *sched.Job) int { return j.ID })

	chains := [][]int{{2, 3}, {3, 2}, {2, 2}, {2, 3, 2}}

	// freshOutcomes runs a fleet born at shards on one segment and returns
	// its per-shard Outcomes — the golden for that (segment, count) pair.
	freshOutcomes := func(t *testing.T, name string, shards int, seg []sched.Job) []*sched.Outcome {
		t.Helper()
		sessions := make([]*engine.Session, shards)
		feeders := make([]engine.Feeder, shards)
		for k := range sessions {
			s, err := openResizeSession(name, machines)
			if err != nil {
				t.Fatalf("opening fresh shard %d: %v", k, err)
			}
			sessions[k], feeders[k] = s, s
		}
		fleet := engine.NewShardOpts(feeders, engine.ShardOptions{Route: route})
		if err := fleet.FeedBatch(seg); err != nil {
			t.Fatalf("feeding fresh fleet: %v", err)
		}
		if err := fleet.Wait(); err != nil {
			t.Fatalf("closing fresh fleet: %v", err)
		}
		outs := make([]*sched.Outcome, shards)
		for k, s := range sessions {
			out, err := s.Close()
			if err != nil {
				t.Fatalf("sealing fresh shard %d: %v", k, err)
			}
			outs[k] = out
		}
		return outs
	}

	// Subtests keep their heap/ prefix: the registry's sessions all run on
	// the heap event queue.
	for _, name := range policy.Names() {
		for _, chain := range chains {
			t.Run(fmt.Sprintf("heap/%s/%v", name, chain), func(t *testing.T) {
				segs := cutSegments(jobs, len(chain))

				// The resized universe: one fleet carried through the
				// whole chain, retiring and rebuilding at each boundary.
				cur := make([]*engine.Session, chain[0])
				feeders := make([]engine.Feeder, chain[0])
				for k := range cur {
					s, err := openResizeSession(name, machines)
					if err != nil {
						t.Fatalf("opening shard %d: %v", k, err)
					}
					cur[k], feeders[k] = s, s
				}
				fleet := engine.NewShardOpts(feeders, engine.ShardOptions{Route: route})

				got := make([][]*sched.Outcome, len(chain))
				for i := range chain {
					if err := fleet.FeedBatch(segs[i]); err != nil {
						t.Fatalf("segment %d: feeding: %v", i, err)
					}
					got[i] = make([]*sched.Outcome, chain[i])
					if i+1 < len(chain) {
						next := make([]*engine.Session, chain[i+1])
						var err error
						fleet, err = engine.ResizeFleet(fleet, chain[i+1], engine.ShardOptions{Route: route},
							func(k int, _ engine.Feeder) error {
								out, err := cur[k].Close()
								if err != nil {
									return err
								}
								got[i][k] = out
								return nil
							},
							func(k int) (engine.Feeder, error) {
								s, err := openResizeSession(name, machines)
								if err != nil {
									return nil, err
								}
								next[k] = s
								return s, nil
							})
						if err != nil {
							t.Fatalf("segment %d: resize %d→%d: %v", i, chain[i], chain[i+1], err)
						}
						cur = next
					} else {
						if err := fleet.Wait(); err != nil {
							t.Fatalf("closing final fleet: %v", err)
						}
						for k, s := range cur {
							out, err := s.Close()
							if err != nil {
								t.Fatalf("sealing final shard %d: %v", k, err)
							}
							got[i][k] = out
						}
					}
				}

				// Every segment of the chain must match a fleet born at
				// that segment's count and fed only that segment.
				for i, K := range chain {
					want := freshOutcomes(t, name, K, segs[i])
					if !reflect.DeepEqual(got[i], want) {
						t.Fatalf("segment %d (fleet of %d): resized fleet's outcomes differ from a %d-born fleet fed the same segment", i, K, K)
					}
				}
			})
		}
	}
}
