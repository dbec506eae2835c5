package policy

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/snapshot"
)

// pendingArrivals reads the pending-arrival run of a session snapshot: the
// compact indices that follow the queued events in EVTQ.
func pendingArrivals(t *testing.T, snap []byte) []int {
	t.Helper()
	sr, err := snapshot.NewReader(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	for {
		tag, d, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tag != "EVTQ" {
			continue
		}
		d.U64()
		d.Span(28 * d.Count(28))
		var out []int
		for n := d.Count(4); n > 0; n-- {
			out = append(out, int(d.U32()))
		}
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
		return out
	}
}

// TestCheckpointArrivalsNotASuffix takes a checkpoint while the pending
// arrivals are not a suffix of the job table — the hardest arrival state: b
// is fed after a with r_b = r_a − sched.Eps, so the drain horizon reaches b
// but not a, and b has arrived while a still pends. Every registry policy
// must restore it and drain to the straight-through outcome.
func TestCheckpointArrivalsNotASuffix(t *testing.T) {
	const cut = 150 // a is job cut, b job cut+1
	ins := random(400, 3, 5, 1.3, true, 2)
	if gap := ins.Jobs[cut].Release - ins.Jobs[cut-1].Release; gap <= sched.Eps {
		t.Fatalf("jobs %d and %d released %v apart; b needs room below a", cut-1, cut, gap)
	}
	ins.Jobs[cut+1].Release = ins.Jobs[cut].Release - sched.Eps
	p := Params{Epsilon: 0.25, Alpha: ins.Alpha}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			e, _ := Lookup(name)
			golden, err := e.Run(ins, p)
			if err != nil {
				t.Fatal(err)
			}
			donor, err := e.New(ins.Machines, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := donor.FeedBatch(ins.Jobs[:cut+2]); err != nil {
				t.Fatal(err)
			}
			snap, err := donor.AppendSnapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			donor.Close()
			if got := pendingArrivals(t, snap); !slices.Equal(got, []int{cut}) {
				t.Fatalf("pending arrivals %v at the checkpoint, want only a's index %d", got, cut)
			}
			heir, err := e.Restore(bytes.NewReader(snap), p)
			if err != nil {
				t.Fatal(err)
			}
			if err := heir.FeedBatch(ins.Jobs[cut+2:]); err != nil {
				t.Fatal(err)
			}
			out, err := heir.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(golden, out) {
				t.Fatal("restored session diverges from the straight-through run")
			}
		})
	}
}

// TestCheckpointNamesPendingJobsByIndex pins what a checkpoint spends on a
// pending job: 4 bytes as a pending arrival, and 4 bytes per index element
// once it has arrived and pends on a machine (wflow holds each job in two
// indexes; srpt adds its banked remainder, 8 bytes). It measures on one
// machine busy with a long job, feeding one or two more jobs that neither
// preempt it nor trip a rejection rule: what the second job adds beyond its
// job record (40 bytes at one machine), conservation entry (8) and outcome
// slot (13), and wsrpt's per-job dense state (16), is what naming it costs.
func TestCheckpointNamesPendingJobsByIndex(t *testing.T) {
	const record = 40 + 8 + 13
	for _, tc := range []struct {
		name    string
		arrived int // bytes per pending job once it has arrived
		dense   int // per-job policy state beyond its index elements
	}{
		{name: "flowtime", arrived: 4},
		{name: "wflow", arrived: 2 * 4},
		{name: "speedscale", arrived: 4},
		{name: "srpt", arrived: 4 + 8},
		{name: "wsrpt", arrived: 4, dense: 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := Lookup(tc.name)
			p := Params{Epsilon: 0.1, Alpha: 2}
			// size snapshots a session running a long job, with k more jobs
			// fed at release 1 that have arrived (arrive) or still pend.
			size := func(k int, arrive bool) int {
				s, err := e.New(1, p)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				jobs := []sched.Job{{ID: 0, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{100}}}
				for i := 1; i <= k; i++ {
					jobs = append(jobs, sched.Job{ID: i, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{200 + float64(i)}})
				}
				if err := s.FeedBatch(jobs); err != nil {
					t.Fatal(err)
				}
				if arrive {
					if err := s.AdvanceTo(1); err != nil {
						t.Fatal(err)
					}
				}
				snap, err := s.AppendSnapshot(nil)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := len(pendingArrivals(t, snap)), map[bool]int{false: k, true: 0}[arrive]; got != want {
					t.Fatalf("%d jobs fed at release 1, %d arrivals pending, want %d", k, got, want)
				}
				if s.Pending() != k+1 {
					t.Fatalf("%d of %d jobs still open, want all: a rule rejected one", s.Pending(), k+1)
				}
				return len(snap)
			}
			if got := size(2, false) - size(1, false) - record; got != 4 {
				t.Errorf("a pending arrival costs %d bytes, want 4", got)
			}
			if got := size(2, true) - size(1, true) - record - tc.dense; got != tc.arrived {
				t.Errorf("a job pending on a machine costs %d bytes, want %d", got, tc.arrived)
			}
		})
	}
}
