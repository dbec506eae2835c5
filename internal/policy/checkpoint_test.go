package policy

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core/flowtime"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// pendingArrivals lists the compact indices of the jobs a session snapshot
// restores as pending arrivals: no section holds them, restore derives them
// as the jobs released after the drain horizon max(last − sched.Eps, 0),
// read here from SESS and the JOBS records.
func pendingArrivals(t *testing.T, snap []byte) []int {
	t.Helper()
	sr, err := snapshot.NewReader(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	d, err := sr.Section("SESS")
	if err != nil {
		t.Fatal(err)
	}
	machines := int(d.U32())
	d.U64()
	horizon := max(d.F64()-sched.Eps, 0)
	if d, err = sr.Section("JOBS"); err != nil {
		t.Fatal(err)
	}
	var out []int
	for k, n := 0, d.Count(32+8*machines); k < n; k++ {
		d.U64()
		if d.F64() > horizon {
			out = append(out, k)
		}
		d.Span(16 + 8*machines)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	return out
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
// pending job: nothing as a pending arrival (restore derives those from the
// drain horizon), and 4 bytes per index element once it has arrived and
// pends on a machine (wflow holds each job in two indexes; srpt adds its
// banked remainder, 8 bytes). It measures on one machine busy with a long
// job, feeding one or two more jobs that neither preempt it nor trip a
// rejection rule: what the second job adds beyond its job record (40 bytes
// at one machine), conservation entry (8) and outcome slot (13), and
// wsrpt's per-job dense state (16), is what naming it costs.
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
				if arrive {
					// A job released at 2 moves the drain horizon past
					// release 1: the k jobs arrive, and it pends as an
					// arrival, which costs nothing and is the same in
					// every size compared.
					jobs = append(jobs, sched.Job{ID: k + 1, Release: 2, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{500}})
				}
				if err := s.FeedBatch(jobs); err != nil {
					t.Fatal(err)
				}
				snap, err := s.AppendSnapshot(nil)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := len(pendingArrivals(t, snap)), map[bool]int{false: k, true: 1}[arrive]; got != want {
					t.Fatalf("%d jobs fed at release 1, %d arrivals pending, want %d", k, got, want)
				}
				if s.Pending() != len(jobs) {
					t.Fatalf("%d of %d jobs still open, want all: a rule rejected one", s.Pending(), len(jobs))
				}
				return len(snap)
			}
			if got := size(2, false) - size(1, false) - record; got != 0 {
				t.Errorf("a pending arrival costs %d bytes, want 0", got)
			}
			if got := size(2, true) - size(1, true) - record - tc.dense; got != tc.arrived {
				t.Errorf("a job pending on a machine costs %d bytes, want %d", got, tc.arrived)
			}
		})
	}
}

// resumeAt feeds jobs[:cut] of ins to a fresh session of policy e, restores
// a second session from its snapshot and feeds that the rest, and returns
// the heir's outcome with the intervals the donor had recorded at the cut.
func resumeAt(t *testing.T, e Entry, ins *sched.Instance, p Params, cut int) (*sched.Outcome, []sched.Interval) {
	t.Helper()
	donor, err := e.New(ins.Machines, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.FeedBatch(ins.Jobs[:cut]); err != nil {
		t.Fatal(err)
	}
	snap, err := donor.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	ran := slices.Clone(donor.Intervals())
	donor.Close()
	heir, err := e.Restore(bytes.NewReader(snap), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := heir.FeedBatch(ins.Jobs[cut:]); err != nil {
		t.Fatal(err)
	}
	out, err := heir.Close()
	if err != nil {
		t.Fatal(err)
	}
	return out, ran
}

// fixture builds an instance from rows of a release and then one
// processing time per machine, or one for every machine; ids in order.
func fixture(machines int, rows ...[]float64) *sched.Instance {
	ins := &sched.Instance{Machines: machines, Alpha: 2}
	for id, row := range rows {
		proc := make([]float64, machines)
		for i := range proc {
			proc[i] = row[1+i%(len(row)-1)]
		}
		ins.Jobs = append(ins.Jobs, sched.Job{ID: id, Release: row[0], Weight: 1, Deadline: sched.NoDeadline, Proc: proc})
	}
	return ins
}

// TestCheckpointRebuildsQueue cuts every registry policy where the event
// queue a restore rebuilds from the machine rows differs most from the
// donor's heap, and requires restore-then-drain to equal the straight-
// through run:
//   - ties: four machines run identical jobs that complete at one instant,
//     where more jobs arrive; the rebuilt completions must tie as the
//     donor's did (in start order), since the outcome records intervals in
//     pop order;
//   - interrupted: one machine's long job is cut short (Rule 1, or an SRPT
//     preemption) just before the checkpoint, so the donor's heap still
//     holds its stale completion, which the rebuilt queue leaves out —
//     jobs arrive at that stale instant too.
func TestCheckpointRebuildsQueue(t *testing.T) {
	// Job 0 runs on machine 1 and job 1, started later, on machine 0: both
	// end at 10 with jobs 2 and 3, so start order is not machine order.
	ties := fixture(4,
		[]float64{0, 100, 10, 100, 100}, []float64{2, 8, 100, 100, 100},
		[]float64{2, 100, 100, 8, 100}, []float64{2, 100, 100, 100, 8},
		[]float64{5, 3},
		[]float64{10, 2}, []float64{10, 2}, []float64{10, 2}, []float64{10.5, 1})
	interrupted := fixture(1,
		[]float64{0, 100}, []float64{1, 1}, []float64{2, 2}, []float64{3, 3}, []float64{4, 4},
		[]float64{4.5, 5}, []float64{4.6, 6},
		[]float64{50, 1}, []float64{100, 2}, []float64{100, 1}, []float64{150, 3})
	p := Params{Epsilon: 0.25, Alpha: 2}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			e, _ := Lookup(name)
			for _, tc := range []struct {
				name string
				ins  *sched.Instance
				cut  int
				// check fails unless the fixture holds what the case is
				// about, from the straight-through outcome and the
				// intervals the donor recorded before the cut.
				check func(golden *sched.Outcome, ran []sched.Interval) bool
			}{
				{"ties", ties, 5, func(golden *sched.Outcome, _ []sched.Interval) bool {
					at := make(map[float64]int)
					for _, c := range golden.Completed {
						if at[c]++; at[c] > 1 {
							return true
						}
					}
					return false
				}},
				{"interrupted", interrupted, 7, func(_ *sched.Outcome, ran []sched.Interval) bool {
					return slices.ContainsFunc(ran, func(iv sched.Interval) bool { return iv.Job == 0 && iv.End < 100 })
				}},
			} {
				golden, err := e.Run(tc.ins, p)
				if err != nil {
					t.Fatal(err)
				}
				out, ran := resumeAt(t, e, tc.ins, p, tc.cut)
				if !tc.check(golden, ran) {
					t.Errorf("%s: the fixture does not reach the state it is about", tc.name)
				}
				if !reflect.DeepEqual(golden, out) {
					t.Errorf("%s: restored session diverges from the straight-through run", tc.name)
				}
			}
		})
	}
}

// TestCheckpointRebuildsDualExits cuts flowtime runs that track the duals at
// every 23rd job: restore re-pushes the V_i exit of every decided job whose
// C̃ lies past the drain horizon, and the resumed typed result — occupancy
// traces, β integral, C̃ and λ included — must equal the straight-through
// one. Some cut must leave exits pending, or the case tests nothing.
func TestCheckpointRebuildsDualExits(t *testing.T) {
	opt := flowtime.Options{Epsilon: 0.2, TrackDual: true}
	pending := 0
	for seed := int64(0); seed < 3; seed++ {
		ins := random(300, 3, seed, 1.4, false, 0)
		golden, err := flowtime.Run(ins, opt)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 23; cut < len(ins.Jobs); cut += 23 {
			horizon := ins.Jobs[cut-1].Release - sched.Eps
			for id, ct := range golden.Dual.CTilde {
				at, ok := golden.Outcome.Completed[id]
				if !ok {
					at = golden.Outcome.Rejected[id]
				}
				if at <= horizon && ct > horizon {
					pending++
				}
			}
			donor, err := flowtime.NewSession(ins.Machines, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := donor.FeedBatch(ins.Jobs[:cut]); err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := donor.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			donor.Close()
			heir, err := flowtime.Restore(&snap, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := heir.FeedBatch(ins.Jobs[cut:]); err != nil {
				t.Fatal(err)
			}
			res, err := heir.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(golden, res) {
				t.Fatalf("seed %d, cut %d: resumed dual run diverges from the straight-through one", seed, cut)
			}
		}
	}
	if pending == 0 {
		t.Fatal("no cut left a V_i exit pending")
	}
}
