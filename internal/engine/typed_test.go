package engine

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
)

// fifoHost hosts the stateful test policy, recording every policy it builds
// and the size hint it was given; its result is the outcome's rejected count.
type fifoHost struct {
	built []*statefulFifo
	hints []int
}

func (h *fifoHost) host(machines, hint int) (Policy, func(*sched.Outcome) int) {
	p := newStatefulFifo(machines, 2)
	h.built = append(h.built, p)
	h.hints = append(h.hints, hint)
	return p, func(out *sched.Outcome) int { return len(out.Rejected) }
}

// TestTypedLifecycle pins the one policy host: the machine check runs
// before the host builds anything, a session that cannot start closes the
// policy it was given, size hints reach the host (clamped, and zero on a
// restore, which the snapshot sizes), Close hands back the host's result,
// and RunBatch closes the session on a feed error and returns that error.
func TestTypedLifecycle(t *testing.T) {
	var h fifoHost
	if _, err := NewTyped(Options{Machines: 0}, h.host); err == nil || len(h.built) != 0 {
		t.Fatalf("zero machines: err %v, %d policies built", err, len(h.built))
	}
	if _, err := NewTyped(Options{Machines: 2, EventQueue: "bogus"}, h.host); err == nil || h.built[0].closed != 1 {
		t.Fatalf("unknown queue: err %v, policy closed %d times", err, h.built[0].closed)
	}
	if _, err := NewTyped(Options{Machines: 2, SizeHint: -3}, h.host); err != nil || h.hints[1] != 0 {
		t.Fatalf("negative hint: err %v, host saw hint %d", err, h.hints[1])
	}

	ins := snapInstance(t, 200, 3, 4)
	want := runFifo(t, ins, 2)
	got, err := RunBatch(ins, func(machines, hint int) (*Typed[int], error) {
		if hint != len(ins.Jobs) {
			t.Errorf("batch hint %d, want %d", hint, len(ins.Jobs))
		}
		return NewTyped(Options{Machines: machines, SizeHint: hint}, h.host)
	})
	if err != nil || got != len(want.Rejected) {
		t.Fatalf("RunBatch = %d, %v; want the %d rejections of a plain session", got, err, len(want.Rejected))
	}

	s, err := NewTyped(Options{Machines: ins.Machines}, h.host)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FeedBatch(ins.Jobs[:100]); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	heir, err := RestoreTyped(&snap, Options{}, h.host)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(h.hints); h.hints[n-1] != 0 || heir.Fed() != 100 {
		t.Fatalf("restore: host hint %d, %d jobs fed", h.hints[n-1], heir.Fed())
	}
	if err := heir.FeedBatch(ins.Jobs[100:]); err != nil {
		t.Fatal(err)
	}
	out, err := heir.Session.Close()
	if err != nil || !reflect.DeepEqual(out, want) {
		t.Fatalf("restored session diverges from the uninterrupted run: %v", err)
	}

	// The feed is the validation: an invalid instance fails at the offending
	// job, in the session it opened, which is closed; the feed error is the
	// error returned.
	bad := *ins
	bad.Jobs = append([]sched.Job(nil), ins.Jobs...)
	bad.Jobs[150].ID = bad.Jobs[10].ID
	opened := 0
	open := func(extra int) func(machines, hint int) (*Typed[int], error) {
		return func(machines, hint int) (*Typed[int], error) {
			opened++
			return NewTyped(Options{Machines: machines + extra, SizeHint: hint}, h.host)
		}
	}
	if _, err := RunBatch(&bad, open(0)); err == nil || !strings.Contains(err.Error(), "engine: duplicate job id") ||
		opened != 1 || h.built[len(h.built)-1].closed != 1 {
		t.Fatalf("invalid instance: err %v, %d sessions opened, policy closed %d times", err, opened, h.built[len(h.built)-1].closed)
	}
	if _, err := RunBatch(ins, open(1)); err == nil || !strings.Contains(err.Error(), "processing times") ||
		h.built[len(h.built)-1].closed != 1 {
		t.Fatalf("feed error: err %v, policy closed %d times", err, h.built[len(h.built)-1].closed)
	}
}
