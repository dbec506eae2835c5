package policy

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core/flowtime"
	"repro/internal/core/speedscale"
	"repro/internal/core/srpt"
	"repro/internal/core/wflow"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// The conformance suite is the one executable statement of what it means to
// be an engine-hosted policy. Every path from a job sequence to a result —
// streamed job by job (with and without AdvanceTo promises), fed in random
// batch splits, killed at a snapshot and resumed in a fresh session (captured
// and restored in place or through a copy), run
// under either event queue, frozen under one queue and thawed under the
// other, observed by live telemetry, presized from a size hint that is wrong
// in either direction — must yield the batch Run's typed Result bit for bit, compared
// with reflect.DeepEqual over every field (outcome, rule counters, rejected
// weight, preemption and migration tallies, dual report), and a snapshot
// must refuse to resume under a different ε/α/γ/dual echo or from a retired
// wire format.
//
// A policy inherits all of it by being one row of suites: its package's Run,
// NewSession and Restore, the instances that stress it, and the option sets
// worth crossing them with. TestConformanceCoversRegistry fails a registry
// row that has no suite row.

// suiteRow is one policy's conformance run, with its option and result types
// erased.
type suiteRow struct {
	policy string // registry name
	run    func(t *testing.T)
}

// echo is the refusal case: a snapshot taken under donor must not restore
// under any of bad, and one recorded under the policy's retired wire-format
// tag old (testdata/<old with "/" as "_">.snap) must fail the tag check.
type echo[O any] struct {
	donor O
	bad   []O
	old   string
}

var queues = []string{engine.EventQueueHeap, engine.EventQueueCalendar}

// withQueue returns opt with its EventQueue field set, withHint with its
// SizeHint. Every policy's options carry those fields and every result an
// Outcome field (outcomeOf); the suite reaches them by name so that a row is
// only the package's own three functions.
func withQueue[O any](opt O, q string) O {
	reflect.ValueOf(&opt).Elem().FieldByName("EventQueue").SetString(q)
	return opt
}

func withHint[O any](opt O, n int) O {
	reflect.ValueOf(&opt).Elem().FieldByName("SizeHint").SetInt(int64(n))
	return opt
}

func outcomeOf(res any) *sched.Outcome {
	return reflect.ValueOf(res).Elem().FieldByName("Outcome").Interface().(*sched.Outcome)
}

func conform[O, R any](policy string,
	run func(*sched.Instance, O) (R, error),
	open func(int, O) (*engine.Typed[R], error),
	restore func(io.Reader, O) (*engine.Typed[R], error),
	instances []*sched.Instance,
	variants func(ins *sched.Instance) []O,
	refuse echo[O]) suiteRow {

	finish := func(t *testing.T, s *engine.Typed[R]) R {
		t.Helper()
		res, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	start := func(t *testing.T, ins *sched.Instance, opt O) *engine.Typed[R] {
		t.Helper()
		s, err := open(ins.Machines, opt)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	feed := func(t *testing.T, s *engine.Typed[R], jobs []sched.Job) {
		t.Helper()
		if err := s.FeedBatch(jobs); err != nil {
			t.Fatal(err)
		}
	}
	// freeze feeds jobs to a fresh session and returns it with its snapshot.
	freeze := func(t *testing.T, ins *sched.Instance, opt O, jobs []sched.Job) (*engine.Typed[R], []byte) {
		t.Helper()
		s := start(t, ins, opt)
		feed(t, s, jobs)
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return s, buf.Bytes()
	}
	// goldens holds the batch Run's result of every instance × variant, computed
	// once per suite run; each runs check against them.
	type goldenCase struct {
		n, v int
		ins  *sched.Instance
		opt  O
		res  R
	}
	var goldens []goldenCase
	each := func(t *testing.T, check func(t *testing.T, ins *sched.Instance, opt O, golden R)) {
		for _, g := range goldens {
			check(t, g.ins, g.opt, g.res)
			if t.Failed() {
				t.Fatalf("instance %d variant %d (%+v)", g.n, g.v, g.opt)
			}
		}
	}

	return suiteRow{policy: policy, run: func(t *testing.T) {
		entry, ok := Lookup(policy)
		if !ok {
			t.Fatalf("suite row %q is not a registered policy", policy)
		}
		goldens = goldens[:0]
		for n, ins := range instances {
			for v, opt := range variants(ins) {
				res, err := run(ins, opt)
				if err != nil {
					t.Fatalf("instance %d variant %d (%+v): batch: %v", n, v, opt, err)
				}
				goldens = append(goldens, goldenCase{n, v, ins, opt, res})
			}
		}

		t.Run("stream", func(t *testing.T) {
			each(t, func(t *testing.T, ins *sched.Instance, opt O, golden R) {
				if err := sched.ValidateOutcome(ins, outcomeOf(golden), entry.Mode); err != nil {
					t.Errorf("batch outcome fails the registered audit mode: %v", err)
				}
				for _, advance := range []bool{false, true} {
					s := start(t, ins, opt)
					for k := range ins.Jobs {
						if advance && k%3 == 0 {
							// Promise nothing earlier than this release will
							// arrive, which advances the simulation right up
							// to the next arrival.
							if err := s.AdvanceTo(ins.Jobs[k].Release); err != nil {
								t.Fatal(err)
							}
						}
						feed(t, s, ins.Jobs[k:k+1])
					}
					if res := finish(t, s); !reflect.DeepEqual(golden, res) {
						t.Errorf("advance %v: streamed result diverges from batch", advance)
					}
				}
			})
		})

		t.Run("split", func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			each(t, func(t *testing.T, ins *sched.Instance, opt O, golden R) {
				for trial := 0; trial < 3; trial++ {
					s := start(t, ins, opt)
					for lo := 0; lo < len(ins.Jobs); {
						hi := min(lo+1+rng.Intn(120), len(ins.Jobs))
						feed(t, s, ins.Jobs[lo:hi])
						lo = hi
					}
					if res := finish(t, s); !reflect.DeepEqual(golden, res) {
						t.Errorf("trial %d: batch-split result diverges from Run", trial)
					}
				}
			})
		})

		t.Run("resume", func(t *testing.T) {
			each(t, func(t *testing.T, ins *sched.Instance, opt O, golden R) {
				for _, frac := range []float64{0.25, 0.6, 0.95} {
					cut := int(frac * float64(len(ins.Jobs)))
					donor, snap := freeze(t, ins, opt, ins.Jobs[:cut])
					heir, err := restore(bytes.NewReader(snap), opt)
					if err != nil {
						t.Fatalf("cut %d: restore: %v", cut, err)
					}
					feed(t, heir, ins.Jobs[cut:])
					if res := finish(t, heir); !reflect.DeepEqual(golden, res) {
						t.Errorf("cut %d: resumed result diverges from the uninterrupted run", cut)
					}
					// The donor keeps feeding after the snapshot and must
					// finish identically: Snapshot observes, never mutates.
					feed(t, donor, ins.Jobs[cut:])
					if res := finish(t, donor); !reflect.DeepEqual(golden, res) {
						t.Errorf("cut %d: Snapshot perturbed the donor", cut)
					}
				}
			})
		})

		// The in-place capture is the checkpoint path: it must append exactly
		// Snapshot's bytes, again when its buffer is reused, and a restore
		// that walks the snapshot in place (restore 1) must match one from a
		// copy (restore 0) — in the restored state's own snapshot and in the
		// resumed result.
		t.Run("snapshot", func(t *testing.T) {
			each(t, func(t *testing.T, ins *sched.Instance, opt O, golden R) {
				cut := len(ins.Jobs) / 3
				donor, snap := freeze(t, ins, opt, ins.Jobs[:cut])
				got, err := donor.AppendSnapshot([]byte("kept"))
				if err != nil {
					t.Fatal(err)
				}
				if string(got[:4]) != "kept" || !bytes.Equal(got[4:], snap) {
					t.Errorf("AppendSnapshot wrote %d bytes after its prefix, Snapshot %d, and they differ", len(got)-4, len(snap))
				}
				if again, err := donor.AppendSnapshot(got[:0]); err != nil || !bytes.Equal(again, snap) {
					t.Errorf("AppendSnapshot into a reused buffer diverged from Snapshot: %v", err)
				}
				finish(t, donor)
				var resnaps [2][]byte
				for k, r := range []io.Reader{bytes.NewReader(snap), snapshot.InPlace(snap)} {
					heir, err := restore(r, opt)
					if err != nil {
						t.Fatalf("restore %d: %v", k, err)
					}
					if resnaps[k], err = heir.AppendSnapshot(nil); err != nil {
						t.Fatal(err)
					}
					feed(t, heir, ins.Jobs[cut:])
					if res := finish(t, heir); !reflect.DeepEqual(golden, res) {
						t.Errorf("restore %d: resumed result diverges from the uninterrupted run", k)
					}
				}
				if !bytes.Equal(resnaps[0], resnaps[1]) {
					t.Errorf("restoring in place and from a copy left different states")
				}
			})
		})

		t.Run("queues", func(t *testing.T) {
			each(t, func(t *testing.T, ins *sched.Instance, opt O, golden R) {
				for _, q := range queues {
					res, err := run(ins, withQueue(opt, q))
					if err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					if !reflect.DeepEqual(golden, res) {
						t.Errorf("%s queue result differs from the default run", q)
					}
				}
			})
		})

		t.Run("crossqueue", func(t *testing.T) {
			each(t, func(t *testing.T, ins *sched.Instance, opt O, golden R) {
				cut := len(ins.Jobs) / 2
				for _, donorQ := range queues {
					for _, heirQ := range queues {
						donor, snap := freeze(t, ins, withQueue(opt, donorQ), ins.Jobs[:cut])
						finish(t, donor)
						heir, err := restore(bytes.NewReader(snap), withQueue(opt, heirQ))
						if err != nil {
							t.Fatalf("restore %s snapshot under %s: %v", donorQ, heirQ, err)
						}
						feed(t, heir, ins.Jobs[cut:])
						if res := finish(t, heir); !reflect.DeepEqual(golden, res) {
							t.Errorf("%s→%s resume diverged from the uninterrupted run", donorQ, heirQ)
						}
					}
				}
			})
		})

		// Telemetry observes, never decides; and what it counted must add up.
		t.Run("telemetry", func(t *testing.T) {
			each(t, func(t *testing.T, ins *sched.Instance, opt O, golden R) {
				reg := obs.NewRegistry()
				s := start(t, ins, opt)
				s.SetTelemetry(engine.NewTelemetry(reg, ""))
				feed(t, s, ins.Jobs)
				if res := finish(t, s); !reflect.DeepEqual(golden, res) {
					t.Errorf("result with telemetry attached diverges from the run without")
				}
				fed := reg.Counter("engine_jobs_fed_total").Value()
				done := reg.Counter("engine_jobs_completed_total").Value() + reg.Counter("engine_jobs_rejected_total").Value()
				if fed != int64(len(ins.Jobs)) || fed != done {
					t.Errorf("registry counted %d fed, %d completed+rejected, want %d of each", fed, done, len(ins.Jobs))
				}
			})
		})

		// A size hint is advisory capacity. The stream check covers no hint
		// and (through Run) the exact one; a served session gets
		// engine.PerShardHint's estimate, which is wrong in either direction.
		t.Run("mishint", func(t *testing.T) {
			each(t, func(t *testing.T, ins *sched.Instance, opt O, golden R) {
				n := len(ins.Jobs)
				for _, hint := range []int{n / 3, 2*n + 7} {
					s := start(t, ins, withHint(opt, hint))
					feed(t, s, ins.Jobs)
					if res := finish(t, s); !reflect.DeepEqual(golden, res) {
						t.Errorf("size hint %d for %d jobs changed the result", hint, n)
					}
				}
			})
		})

		if len(refuse.bad) > 0 || refuse.old != "" {
			t.Run("echo", func(t *testing.T) {
				ins := instances[0]
				donor, snap := freeze(t, ins, refuse.donor, ins.Jobs[:100])
				finish(t, donor)
				for _, bad := range refuse.bad {
					if _, err := restore(bytes.NewReader(snap), bad); err == nil ||
						!strings.Contains(err.Error(), "snapshot taken with") {
						t.Errorf("option mismatch %+v accepted: %v", bad, err)
					}
				}
				if refuse.old != "" {
					snap, err := os.ReadFile(filepath.Join("testdata", strings.ReplaceAll(refuse.old, "/", "_")+".snap"))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := restore(bytes.NewReader(snap), refuse.donor); err == nil ||
						!strings.Contains(err.Error(), fmt.Sprintf("taken with policy %q", refuse.old)) {
						t.Errorf("%s snapshot not refused by the tag check: %v", refuse.old, err)
					}
				}
			})
		}
	}}
}

// random draws n jobs on m machines at the given load; weighted instances
// also carry the power exponent speedscale needs (the others ignore it).
func random(n, m int, seed int64, load float64, weighted bool, alpha float64) *sched.Instance {
	cfg := workload.DefaultConfig(n, m, seed)
	cfg.Load = load
	cfg.Weighted = weighted
	ins := workload.Random(cfg)
	ins.Alpha = alpha
	return ins
}

// bursty is the tie-break-heavy regime: bimodal sizes released in bursts, so
// many jobs share a release instant and a processing time, and batch splits
// land between within-Eps releases.
func bursty(n, m int, seed int64, burst int, weighted bool, alpha float64) *sched.Instance {
	cfg := workload.DefaultConfig(n, m, seed)
	cfg.Sizes = workload.SizeBimodal
	cfg.Arrivals = workload.ArrivalsBursty
	cfg.BurstSize = burst
	cfg.Load = 1.5
	cfg.Weighted = weighted
	ins := workload.Random(cfg)
	ins.Alpha = alpha
	return ins
}

func seeds(lo, hi int64, gen func(seed int64) *sched.Instance) []*sched.Instance {
	var out []*sched.Instance
	for s := lo; s < hi; s++ {
		out = append(out, gen(s))
	}
	return out
}

func fixed[O any](opts ...O) func(*sched.Instance) []O {
	return func(*sched.Instance) []O { return opts }
}

// preemptive is the instance matrix of the two SRPT comparators: overloaded
// random machines, the bursty tie-heavy family, the single-machine Lemma 1
// adversaries (big jobs ahead of a stream of mice — maximal preemption
// pressure), weighted overload, and one heavily loaded machine, where the
// waiting index carries many banked remainders at any snapshot watermark.
func preemptive() []*sched.Instance {
	out := seeds(0, 5, func(s int64) *sched.Instance { return random(500, 5, s, 1.3, false, 0) })
	out = append(out, seeds(8, 10, func(s int64) *sched.Instance { return bursty(400, 4, s, 30, false, 0) })...)
	out = append(out, workload.Lemma1Instance(10, 0.4), workload.Lemma1Instance(6, 0.3))
	out = append(out, seeds(0, 3, func(s int64) *sched.Instance { return random(500, 4, s, 1.4, true, 0) })...)
	out = append(out, seeds(0, 4, func(s int64) *sched.Instance { return random(300, 4, s, 1.3, true, 0) })...)
	return append(out, random(300, 1, 11, 1.6, false, 0))
}

var suites = []suiteRow{
	conform("flowtime", flowtime.Run, flowtime.NewSession, flowtime.Restore,
		append(append(seeds(0, 4, func(s int64) *sched.Instance { return random(500, 5, s, 1.3, false, 0) }),
			bursty(400, 4, 9, 30, false, 0)), workload.Lemma1Instance(10, 0.4)),
		fixed(
			flowtime.Options{Epsilon: 0.2},
			flowtime.Options{Epsilon: 0.2, TrackDual: true},
			flowtime.Options{Epsilon: 0.4, TrackDual: true, ParallelDispatch: 4},
			flowtime.Options{Epsilon: 0.4, ParallelDispatch: 4},
			flowtime.Options{Epsilon: 0.1, ParallelDispatch: 3},
		),
		echo[flowtime.Options]{
			donor: flowtime.Options{Epsilon: 0.2},
			bad:   []flowtime.Options{{Epsilon: 0.3}, {Epsilon: 0.2, TrackDual: true}},
		}),
	conform("wflow", wflow.Run, wflow.NewSession, wflow.Restore,
		append(seeds(0, 4, func(s int64) *sched.Instance { return random(500, 5, s, 1.3, true, 0) }),
			bursty(400, 4, 9, 25, true, 0)),
		fixed(
			wflow.Options{Epsilon: 0.2},
			wflow.Options{Epsilon: 0.35, ParallelDispatch: 4},
			wflow.Options{Epsilon: 0.4, ParallelDispatch: 4},
		),
		echo[wflow.Options]{
			donor: wflow.Options{Epsilon: 0.2},
			bad:   []wflow.Options{{Epsilon: 0.25}},
		}),
	// Intervals carry frozen speeds, the most rounding-sensitive state in
	// the repo: a pop-order or restore difference surfaces here first.
	// Sessions need an explicit α; the batch run gets the same value so both
	// resolve one γ.
	conform("speedscale", speedscale.Run, speedscale.NewSession, speedscale.Restore,
		append(seeds(0, 4, func(s int64) *sched.Instance { return random(400, 4, s, 1.2, true, 2) }),
			bursty(300, 3, 9, 20, true, 3)),
		func(ins *sched.Instance) []speedscale.Options {
			return []speedscale.Options{
				{Epsilon: 0.3, Alpha: ins.Alpha},
				{Epsilon: 0.3, Alpha: ins.Alpha, TrackDual: true},
				{Epsilon: 0.2, Alpha: ins.Alpha, TrackDual: true},
				{Epsilon: 0.15, Alpha: ins.Alpha, ParallelDispatch: 4},
				{Epsilon: 0.15, Alpha: ins.Alpha, Gamma: 0.5, ParallelDispatch: 3},
			}
		},
		echo[speedscale.Options]{
			donor: speedscale.Options{Epsilon: 0.3, Alpha: 2},
			bad: []speedscale.Options{
				{Epsilon: 0.2, Alpha: 2},            // ε differs
				{Epsilon: 0.3, Alpha: 2.5},          // α differs (and with it the default γ)
				{Epsilon: 0.3, Alpha: 2, Gamma: 42}, // explicit γ differs
			},
		}),
	conform("srpt", srpt.Run, srpt.NewSession, srpt.Restore, preemptive(),
		fixed(srpt.Options{}, srpt.Options{ParallelDispatch: 4}),
		echo[srpt.Options]{old: "srpt/v1"}),
	conform("wsrpt", srpt.RunWeighted, srpt.NewWeightedSession, srpt.RestoreWeighted, preemptive(),
		fixed(srpt.WeightedOptions{}),
		echo[srpt.WeightedOptions]{old: "wsrpt/v1"}),
}

func TestConformance(t *testing.T) {
	for _, s := range suites {
		t.Run(s.policy, s.run)
	}
}

// TestConformanceCoversRegistry keeps the registry and the suite in step: a
// policy cannot be registered without inheriting the suite.
func TestConformanceCoversRegistry(t *testing.T) {
	covered := map[string]bool{}
	for _, s := range suites {
		covered[s.policy] = true
	}
	for _, name := range Names() {
		if !covered[name] {
			t.Errorf("registered policy %q has no conformance suite row", name)
		}
	}
}
