package engine

import (
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/sched"
)

// fifoPolicy is a minimal test policy: jobs go to the least-index idle
// machine (or machine 0), service is FIFO per machine, and — to exercise
// RejectRunning and the stale-completion guard — the running job is
// interrupted and rejected once `rejectAfter` jobs arrive during its
// execution (0 disables rejection).
type fifoPolicy struct {
	c           *Core
	queues      [][]int
	victims     []int
	rejectAfter int
	rejected    []int
	bookkept    []float64
	closed      int
}

func newFifo(machines, rejectAfter int) *fifoPolicy {
	return &fifoPolicy{
		queues:      make([][]int, machines),
		victims:     make([]int, machines),
		rejectAfter: rejectAfter,
	}
}

func (p *fifoPolicy) Bind(c *Core) { p.c = c }

func (p *fifoPolicy) OnArrival(t float64, jk int) {
	best := 0
	for i := 0; i < p.c.Machines(); i++ {
		if p.c.Machine(i).Idle() && len(p.queues[i]) == 0 {
			best = i
			break
		}
	}
	p.c.Assign(jk, best)
	p.queues[best] = append(p.queues[best], jk)
	if !p.c.Machine(best).Idle() && p.rejectAfter > 0 {
		p.victims[best]++
		if p.victims[best] >= p.rejectAfter {
			k, _ := p.c.RejectRunning(best, t)
			p.rejected = append(p.rejected, k)
			p.victims[best] = 0
			p.startNext(best, t)
		}
	}
	if p.c.Machine(best).Idle() {
		p.startNext(best, t)
	}
}

func (p *fifoPolicy) startNext(i int, t float64) {
	if len(p.queues[i]) == 0 {
		return
	}
	jk := p.queues[i][0]
	p.queues[i] = p.queues[i][1:]
	p.victims[i] = 0
	p.c.Start(i, t, jk, p.c.Job(jk).Proc[i], 1)
}

func (p *fifoPolicy) OnCompletion(t float64, i, jk int) { p.victims[i] = 0 }
func (p *fifoPolicy) OnIdle(t float64, i int)           { p.startNext(i, t) }
func (p *fifoPolicy) OnBookkeeping(t float64, i, jk int) {
	p.bookkept = append(p.bookkept, t)
}
func (p *fifoPolicy) Audit() error { return nil }
func (p *fifoPolicy) Close()       { p.closed++ }

func job(id int, release float64, proc ...float64) sched.Job {
	return sched.Job{ID: id, Release: release, Weight: 1, Deadline: sched.NoDeadline, Proc: proc}
}

func TestSessionBasicRun(t *testing.T) {
	p := newFifo(2, 0)
	s, err := NewSession(p, Options{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []sched.Job{
		job(0, 0, 3, 3), job(1, 0, 2, 2), job(2, 1, 1, 1),
	}
	for _, j := range jobs {
		if err := s.Feed(j); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Completed) != 3 || len(out.Rejected) != 0 {
		t.Fatalf("completed %d rejected %d, want 3/0", len(out.Completed), len(out.Rejected))
	}
	if out.Completed[0] != 3 {
		t.Fatalf("job 0 completes at %v, want 3", out.Completed[0])
	}
	if p.closed != 1 {
		t.Fatalf("policy closed %d times", p.closed)
	}
}

func TestSessionRejectionAndStaleCompletion(t *testing.T) {
	// One machine, rejectAfter=1: job 1's arrival interrupts job 0 mid-run.
	// The stale completion event of job 0 must be dropped by the version
	// guard, and job 0's partial interval recorded.
	p := newFifo(1, 1)
	s, err := NewSession(p, Options{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(job(0, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(job(1, 2, 1)); err != nil {
		t.Fatal(err)
	}
	out, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Rejected[0]; !ok {
		t.Fatal("job 0 should have been rejected")
	}
	if c, ok := out.Completed[1]; !ok || c != 3 {
		t.Fatalf("job 1 completion %v, want 3", c)
	}
	if len(out.Intervals) != 2 {
		t.Fatalf("got %d intervals, want 2 (partial + full)", len(out.Intervals))
	}
	if iv := out.Intervals[0]; iv.Job != 0 || iv.Start != 0 || iv.End != 2 {
		t.Fatalf("partial interval %+v", iv)
	}
}

func TestSessionFeedValidation(t *testing.T) {
	cases := []struct {
		name string
		j    sched.Job
		want string
	}{
		{"wrong proc count", job(10, 5, 1), "processing times"},
		{"nonpositive proc", job(10, 5, 1, 0), "invalid p"},
		{"nan proc", job(10, 5, 1, math.NaN()), "invalid p"},
		{"bad weight", sched.Job{ID: 10, Release: 5, Weight: 0, Deadline: sched.NoDeadline, Proc: []float64{1, 1}}, "weight"},
		{"negative release", job(10, -1, 1, 1), "invalid release"},
		{"out of order", job(10, 1, 1, 1), "release order"},
		{"duplicate id", job(0, 5, 1, 1), "duplicate"},
		{"bad deadline", sched.Job{ID: 10, Release: 5, Weight: 1, Deadline: 4, Proc: []float64{1, 1}}, "deadline"},
	}
	p := newFifo(2, 0)
	s, err := NewSession(p, Options{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(job(0, 4, 1, 1)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		err := s.Feed(tc.j)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// Validation failures must leave the session usable.
	if err := s.Feed(job(1, 4, 1, 1)); err != nil {
		t.Fatalf("session unusable after validation errors: %v", err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionCloseIsFinal(t *testing.T) {
	p := newFifo(1, 0)
	s, _ := NewSession(p, Options{Machines: 1})
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != ErrClosed {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}
	if err := s.Feed(job(0, 0, 1)); err != ErrClosed {
		t.Fatalf("Feed after Close: %v, want ErrClosed", err)
	}
	if p.closed != 1 {
		t.Fatalf("policy closed %d times", p.closed)
	}
}

// TestSessionFinishThenRead pins the split close: Finish decides every slot
// and audits without building maps, Decision and Intervals read the record
// in place, and a Close after it still hands out the same Outcome a plain
// Close would — once.
func TestSessionFinishThenRead(t *testing.T) {
	jobs := []sched.Job{job(7, 0, 10), job(3, 1, 1), job(5, 2, 2), job(9, 2, 1)}
	run := func() *Session {
		s, err := NewSession(newFifo(1, 2), Options{Machines: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.FeedBatch(jobs); err != nil {
			t.Fatal(err)
		}
		return s
	}
	want, err := run().Close()
	if err != nil {
		t.Fatal(err)
	}
	p := newFifo(1, 2)
	s, _ := NewSession(p, Options{Machines: 1})
	if err := s.FeedBatch(jobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(); err != ErrClosed {
		t.Fatalf("second Finish: %v, want ErrClosed", err)
	}
	if err := s.Feed(job(1, 3, 1)); err != ErrClosed {
		t.Fatalf("Feed after Finish: %v, want ErrClosed", err)
	}
	for k := range s.Fed() {
		j, st, at := s.Decision(k)
		if j.ID != jobs[k].ID {
			t.Fatalf("slot %d holds job %d, want %d", k, j.ID, jobs[k].ID)
		}
		switch st {
		case sched.JobCompleted:
			if c, ok := want.Completed[j.ID]; !ok || c != at {
				t.Fatalf("job %d completed at %v, Close says %v (%v)", j.ID, at, c, ok)
			}
		case sched.JobRejected:
			if r, ok := want.Rejected[j.ID]; !ok || r != at {
				t.Fatalf("job %d rejected at %v, Close says %v (%v)", j.ID, at, r, ok)
			}
		default:
			t.Fatalf("job %d undecided after Finish", j.ID)
		}
	}
	if len(want.Rejected) == 0 {
		t.Fatal("fixture rejects nothing; the rejected branch went unchecked")
	}
	got, err := s.Close()
	if err != nil {
		t.Fatalf("Close after Finish: %v", err)
	}
	if !slices.Equal(got.Intervals, want.Intervals) || !maps.Equal(got.Completed, want.Completed) ||
		!maps.Equal(got.Rejected, want.Rejected) || !maps.Equal(got.Assigned, want.Assigned) {
		t.Fatalf("Close after Finish gave %+v, want %+v", got, want)
	}
	if !slices.Equal(s.Intervals(), want.Intervals) {
		t.Fatalf("Intervals %v, want %v", s.Intervals(), want.Intervals)
	}
	if _, err := s.Close(); err != ErrClosed {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}
	if p.closed != 1 {
		t.Fatalf("policy closed %d times", p.closed)
	}
}

func TestSessionBookkeeping(t *testing.T) {
	p := newFifo(1, 0)
	s, _ := NewSession(p, Options{Machines: 1})
	if err := s.Feed(job(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	s.core.Bookkeep(7, 0, 0)
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(p.bookkept) != 1 || p.bookkept[0] != 7 {
		t.Fatalf("bookkeeping events %v, want [7]", p.bookkept)
	}
}

func TestNewSessionRejectsBadMachineCount(t *testing.T) {
	if _, err := NewSession(newFifo(0, 0), Options{Machines: 0}); err == nil {
		t.Fatal("machines=0 accepted")
	}
}
