package engine

import (
	"testing"

	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/workload"
)

// handled is one event as the policy saw it.
type handled struct {
	kind eventq.Kind
	t    float64
	i    int
	jk   int
}

// recorder is fifoPolicy with every event it handles logged, and a
// bookkeeping event scheduled at every third arrival — at the arrival's own
// instant or one time unit later — so bookkeeping ties with arrivals and
// with completions.
type recorder struct {
	*fifoPolicy
	log []handled
}

func (r *recorder) OnArrival(t float64, jk int) {
	r.log = append(r.log, handled{eventq.KindArrival, t, -1, jk})
	if jk%3 == 0 {
		r.c.Bookkeep(t+float64(jk%2), 0, jk)
	}
	r.fifoPolicy.OnArrival(t, jk)
}

func (r *recorder) OnCompletion(t float64, i, jk int) {
	r.log = append(r.log, handled{eventq.KindCompletion, t, i, jk})
	r.fifoPolicy.OnCompletion(t, i, jk)
}

func (r *recorder) OnBookkeeping(t float64, i, jk int) {
	r.log = append(r.log, handled{eventq.KindBookkeeping, t, i, jk})
}

// plainQueueOrder runs jobs the way the engine ran them before arrivals got
// a list of their own: every arrival pushed into one plain eventq.Queue
// beside the completions and bookkeeping, and the queue popped to the end.
func plainQueueOrder(t *testing.T, machines int, jobs []sched.Job) []handled {
	t.Helper()
	r := &recorder{fifoPolicy: newFifo(machines, 2)}
	s, err := NewSession(r, Options{Machines: machines})
	if err != nil {
		t.Fatal(err)
	}
	c := &s.core
	q := &eventq.Queue{}
	c.q = q
	for k, j := range jobs {
		c.ids.Add(j.ID)
		c.jobs = append(c.jobs, j)
		c.done = append(c.done, 0)
		c.rec.Add()
		q.Push(eventq.Event{Time: j.Release, Kind: eventq.KindArrival, Job: int32(k), Machine: -1})
	}
	for q.Len() > 0 {
		if e := q.Pop(); e.Kind == eventq.KindArrival {
			c.pol.OnArrival(e.Time, int(e.Job))
		} else {
			c.handle(e)
		}
	}
	return r.log
}

// TestArrivalListMatchesPlainQueue holds the merge of the arrival list with
// the completions-only queue to the order one plain queue gives the same
// events: on releases that dip below the running maximum by less than Eps
// and tie exactly, on releases that tie in runs with integer completions
// and bookkeeping, fed in batches of 1, 16, 17 and the whole stream, under
// both queue implementations.
func TestArrivalListMatchesPlainQueue(t *testing.T) {
	const machines = 3
	ties := make([]sched.Job, 300)
	for k := range ties {
		ties[k] = job(k, float64(k/5), float64(1+k%4), float64(1+k%3), 2)
	}
	for _, tc := range []struct {
		name string
		jobs []sched.Job
	}{
		{"eps-dips", epsStraddleJobs(400, machines, 11)},
		{"equal-releases", ties},
	} {
		want := plainQueueOrder(t, machines, tc.jobs)
		for _, queue := range []string{EventQueueHeap, EventQueueCalendar} {
			for _, cut := range []int{1, 16, 17, len(tc.jobs)} {
				r := &recorder{fifoPolicy: newFifo(machines, 2)}
				s, err := NewSession(r, Options{Machines: machines, EventQueue: queue})
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(tc.jobs); lo += cut {
					if err := s.FeedBatch(tc.jobs[lo:min(lo+cut, len(tc.jobs))]); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Finish(); err != nil {
					t.Fatal(err)
				}
				if k := firstDiff(r.log, want); k >= 0 {
					t.Fatalf("%s, %s queue, batches of %d: event %d of %d is %+v, a plain queue pops %+v",
						tc.name, queue, cut, k, len(want), at(r.log, k), at(want, k))
				}
			}
		}
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []handled) int {
	for k := range min(len(a), len(b)) {
		if a[k] != b[k] {
			return k
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func at(log []handled, k int) any {
	if k < len(log) {
		return log[k]
	}
	return "nothing"
}

// TestArrivalListStaysBounded feeds 100k jobs in 256-job slabs and checks,
// after every slab, that the arrival list's capacity stays within a small
// multiple of what one drain cadence leaves pending: a list that only
// skipped its consumed prefix would grow with the stream.
func TestArrivalListStaysBounded(t *testing.T) {
	const machines, n, slab = 4, 100000, 256
	cfg := workload.DefaultConfig(n, machines, 3)
	cfg.Load = 1.3
	jobs := workload.Random(cfg).Jobs
	s, err := NewSession(newFifo(machines, 3), Options{Machines: machines})
	if err != nil {
		t.Fatal(err)
	}
	c := &s.core
	for lo := 0; lo < n; lo += slab {
		if err := s.FeedBatch(jobs[lo:min(lo+slab, n)]); err != nil {
			t.Fatal(err)
		}
		if cap(c.arr) > 4*feedChunk {
			t.Fatalf("after %d jobs the arrival list has capacity %d with %d pending", lo+slab, cap(c.arr), len(c.arrivals()))
		}
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
