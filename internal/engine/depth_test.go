package engine

import (
	"sync"
	"testing"
)

// TestSessionPendingAndFed pins the queue-depth signal of a single session:
// Pending counts jobs admitted but not yet completed/rejected, Fed counts
// admissions.
func TestSessionPendingAndFed(t *testing.T) {
	s, err := NewSession(newFifo(1, 0), Options{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Fed() != 0 || s.Pending() != 0 {
		t.Fatalf("fresh session: fed %d pending %d", s.Fed(), s.Pending())
	}
	// Three unit jobs at t=0 on one machine: nothing completes until the
	// drain horizon passes their completion times.
	for id := 0; id < 3; id++ {
		if err := s.Feed(job(id, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Fed() != 3 || s.Pending() != 3 {
		t.Fatalf("after 3 feeds: fed %d pending %d", s.Fed(), s.Pending())
	}
	// Advance past the first two completions (t=1, t=2) but not the third.
	if err := s.AdvanceTo(2.5); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 1 {
		t.Fatalf("after AdvanceTo(2.5): pending %d, want 1", s.Pending())
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 || s.Fed() != 3 {
		t.Fatalf("after close: fed %d pending %d", s.Fed(), s.Pending())
	}
}

// TestShardDepthAndQuiesce pins the fleet-level depth signal: jobs buffered
// in producer slabs count toward Depth, Quiesce drives every lane to zero,
// and the drained jobs show up in the sessions' own Pending.
func TestShardDepthAndQuiesce(t *testing.T) {
	const shards = 2
	feeders := make([]Feeder, shards)
	sessions := make([]*Session, shards)
	for k := range feeders {
		s, err := NewSession(newFifo(1, 0), Options{Machines: 1})
		if err != nil {
			t.Fatal(err)
		}
		sessions[k], feeders[k] = s, s
	}
	// Big slabs: nothing flushes on its own, so every fed job stays buffered.
	sh := newShard(feeders, nil, 1024, 2)
	const n = 40
	for id := 0; id < n; id++ {
		if err := sh.Feed(job(id, float64(id), 1)); err != nil {
			t.Fatal(err)
		}
	}
	depth := sh.Depth()
	total := 0
	for _, d := range depth {
		total += d
	}
	if total != n {
		t.Fatalf("buffered depth %v sums to %d, want %d", depth, total, n)
	}
	if err := sh.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for k, d := range sh.Depth() {
		if d != 0 {
			t.Fatalf("lane %d depth %d after Quiesce", k, d)
		}
	}
	// Every job is now inside a session: admitted, some still pending.
	fed := 0
	for _, s := range sessions {
		fed += s.Fed()
	}
	if fed != n {
		t.Fatalf("sessions report %d fed after quiesce, want %d", fed, n)
	}
	if err := sh.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuiesceSurfacesFeedErrors pins that a worker-side admission error
// (duplicate id) comes back from Quiesce, not only from Wait.
func TestQuiesceSurfacesFeedErrors(t *testing.T) {
	s, err := NewSession(newFifo(1, 0), Options{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh := newShard([]Feeder{s}, nil, 4, 2)
	for i := 0; i < 3; i++ {
		if err := sh.Feed(job(7, 1, 1)); err != nil { // duplicate ids
			t.Fatal(err)
		}
	}
	if err := sh.Quiesce(); err == nil {
		t.Fatal("duplicate-id admission error not surfaced by Quiesce")
	}
	sh.Wait()
	s.Close()
}

// TestDepthSignalsUnderConcurrentFeeding is the race-detector companion to
// the depth tests above: several independent fleets feed concurrently with
// tiny slabs (so slab rotation — the producer/worker handoff and the atomic
// drained counters behind Depth — churns constantly), each producer polling
// Depth and DepthTotal between feeds exactly the way an admission controller
// does, pausing at Quiesce barriers mid-stream to read the sessions' own
// Pending/Fed, then resuming. Run with -race, it proves the depth signal is
// readable at full ingestion speed without a lock on the hot path.
func TestDepthSignalsUnderConcurrentFeeding(t *testing.T) {
	const (
		fleets = 4
		shards = 3
		jobs   = 600
		pause  = 150 // Quiesce every this many jobs
	)
	var wg sync.WaitGroup
	for f := 0; f < fleets; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sessions := make([]*Session, shards)
			feeders := make([]Feeder, shards)
			for k := range feeders {
				s, err := NewSession(newFifo(1, 0), Options{Machines: 1})
				if err != nil {
					t.Error(err)
					return
				}
				sessions[k], feeders[k] = s, s
			}
			// 4-job slabs, 2 per lane: every few feeds hands a slab across the
			// channel and reclaims a drained one.
			sh := newShard(feeders, nil, 4, 2)
			for id := 0; id < jobs; id++ {
				if err := sh.Feed(job(id, float64(id)*0.01, 1)); err != nil {
					t.Error(err)
					return
				}
				// Admission-controller cadence: a depth read per fed job,
				// racing the workers' drained-side updates.
				if sh.DepthTotal() < 0 {
					t.Error("negative depth")
					return
				}
				if id%17 == 0 {
					for _, d := range sh.Depth() {
						if d < 0 {
							t.Error("negative lane depth")
							return
						}
					}
				}
				if (id+1)%pause == 0 {
					if err := sh.Quiesce(); err != nil {
						t.Error(err)
						return
					}
					if got := sh.DepthTotal(); got != 0 {
						t.Errorf("depth %d after Quiesce, want 0", got)
						return
					}
					// The barrier makes the sessions inspectable from here.
					fed := 0
					for _, s := range sessions {
						fed += s.Fed()
						if s.Pending() < 0 {
							t.Error("negative pending")
							return
						}
					}
					if fed != id+1 {
						t.Errorf("sessions absorbed %d of %d fed", fed, id+1)
						return
					}
				}
			}
			if err := sh.Wait(); err != nil {
				t.Error(err)
				return
			}
			for _, s := range sessions {
				if _, err := s.Close(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
