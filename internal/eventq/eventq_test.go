package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrderingByTime(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 3, Kind: KindArrival})
	q.Push(Event{Time: 1, Kind: KindArrival})
	q.Push(Event{Time: 2, Kind: KindArrival})
	var got []float64
	for q.Len() > 0 {
		got = append(got, q.Pop().Time)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events popped out of order: %v", got)
	}
}

func TestKindBreaksTies(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 5, Kind: KindArrival, Job: 1})
	q.Push(Event{Time: 5, Kind: KindCompletion, Job: 2})
	q.Push(Event{Time: 5, Kind: KindBookkeeping, Job: 3})
	want := []Kind{KindCompletion, KindBookkeeping, KindArrival}
	for _, k := range want {
		if e := q.Pop(); e.Kind != k {
			t.Fatalf("got kind %v, want %v", e.Kind, k)
		}
	}
}

func TestInsertionOrderBreaksFullTies(t *testing.T) {
	var q Queue
	for id := 0; id < 10; id++ {
		q.Push(Event{Time: 1, Kind: KindArrival, Job: int32(id)})
	}
	for id := 0; id < 10; id++ {
		if e := q.Pop(); int(e.Job) != id {
			t.Fatalf("tie broken out of insertion order: got %d want %d", e.Job, id)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 1})
	if q.Peek().Time != 1 || q.Len() != 1 {
		t.Fatal("Peek modified the queue")
	}
}

func TestQuickAlwaysSorted(t *testing.T) {
	f := func(times []float64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		for _, tt := range times {
			if tt < 0 {
				tt = -tt
			}
			q.Push(Event{Time: tt, Kind: Kind(rng.Intn(3))})
		}
		last := -1.0
		for q.Len() > 0 {
			e := q.Pop()
			if e.Time < last {
				return false
			}
			last = e.Time
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedPushPop(t *testing.T) {
	var q Queue
	rng := rand.New(rand.NewSource(42))
	last := 0.0
	pushed, popped := 0, 0
	for i := 0; i < 1000; i++ {
		if q.Len() == 0 || rng.Intn(2) == 0 {
			// future events only: times must not precede the clock
			q.Push(Event{Time: last + rng.Float64()})
			pushed++
		} else {
			e := q.Pop()
			popped++
			if e.Time < last {
				t.Fatalf("time went backwards: %v < %v", e.Time, last)
			}
			last = e.Time
		}
	}
	if popped+q.Len() != pushed {
		t.Fatalf("lost events: pushed %d, popped %d, left %d", pushed, popped, q.Len())
	}
}

func TestGrowPreservesContents(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 2, Job: 1})
	q.Grow(1000)
	q.Push(Event{Time: 1, Job: 2})
	if e := q.Pop(); e.Job != 2 || q.Len() != 1 {
		t.Fatalf("Grow corrupted the queue: %+v len=%d", e, q.Len())
	}
}
