package engine

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// statefulFifo extends the fifoPolicy test policy with the StatefulPolicy
// hooks, so the engine round trip can be exercised without pulling a real
// scheduler into the package.
type statefulFifo struct {
	*fifoPolicy
}

func newStatefulFifo(machines, rejectAfter int) *statefulFifo {
	return &statefulFifo{fifoPolicy: newFifo(machines, rejectAfter)}
}

func (p *statefulFifo) SnapshotTag() string { return "engine-test-fifo/v1" }

func (p *statefulFifo) SaveState(e *snapshot.Encoder) {
	e.Int(p.rejectAfter)
	e.U64(uint64(len(p.queues)))
	for i := range p.queues {
		e.U64(uint64(len(p.queues[i])))
		for _, jk := range p.queues[i] {
			e.Int(jk)
		}
		e.Int(p.victims[i])
	}
	e.U64(uint64(len(p.rejected)))
	for _, jk := range p.rejected {
		e.Int(jk)
	}
	e.U64(uint64(len(p.bookkept)))
	for _, t := range p.bookkept {
		e.F64(t)
	}
}

func (p *statefulFifo) LoadState(d *snapshot.Decoder) error {
	if got := d.Int(); d.Err() == nil && got != p.rejectAfter {
		return fmt.Errorf("snapshot taken with rejectAfter=%d, restoring with %d", got, p.rejectAfter)
	}
	if got := d.Count(8); d.Err() == nil && got != len(p.queues) {
		d.Failf("%d machine queues for %d machines", got, len(p.queues))
	}
	njobs := p.c.NumJobs()
	for i := range p.queues {
		n := d.Count(8)
		for k := 0; k < n; k++ {
			jk := d.Int()
			if d.Err() == nil && (jk < 0 || jk >= njobs) {
				d.Failf("queued job index %d out of range", jk)
				break
			}
			p.queues[i] = append(p.queues[i], jk)
		}
		p.victims[i] = d.Int()
	}
	n := d.Count(8)
	for k := 0; k < n; k++ {
		p.rejected = append(p.rejected, d.Int())
	}
	n = d.Count(8)
	for k := 0; k < n; k++ {
		p.bookkept = append(p.bookkept, d.F64())
	}
	return d.Err()
}

// snapInstance builds a moderately loaded random instance.
func snapInstance(t *testing.T, n, m int, seed int64) *sched.Instance {
	t.Helper()
	cfg := workload.DefaultConfig(n, m, seed)
	cfg.Load = 1.4
	return workload.Random(cfg)
}

// runFifo runs the whole instance uninterrupted through a session.
func runFifo(t *testing.T, ins *sched.Instance, rejectAfter int) *sched.Outcome {
	t.Helper()
	s, err := NewSession(newStatefulFifo(ins.Machines, rejectAfter), Options{Machines: ins.Machines})
	if err != nil {
		t.Fatal(err)
	}
	for k := range ins.Jobs {
		if err := s.Feed(ins.Jobs[k]); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// snapshotAt feeds the first cut jobs, snapshots, and returns the bytes
// along with the still-live donor session and its policy.
func snapshotAt(t *testing.T, ins *sched.Instance, rejectAfter, cut int) ([]byte, *Session, *statefulFifo) {
	t.Helper()
	p := newStatefulFifo(ins.Machines, rejectAfter)
	s, err := NewSession(p, Options{Machines: ins.Machines})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < cut; k++ {
		if err := s.Feed(ins.Jobs[k]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), s, p
}

// TestSnapshotRestoreContinueBitIdentical is the engine-level resume
// equivalence test: snapshot at several watermarks, restore into a fresh
// session, feed the remainder, and the final Outcome must be bit-identical
// to an uninterrupted run — and the donor session, having only been
// observed, must finish identically too.
func TestSnapshotRestoreContinueBitIdentical(t *testing.T) {
	for _, rejectAfter := range []int{0, 3} {
		for seed := int64(0); seed < 3; seed++ {
			ins := snapInstance(t, 400, 4, seed)
			want := runFifo(t, ins, rejectAfter)
			for _, frac := range []float64{0.1, 0.5, 0.9} {
				cut := int(frac * float64(len(ins.Jobs)))
				snap, donor, _ := snapshotAt(t, ins, rejectAfter, cut)

				var rp *statefulFifo
				rs, err := RestoreOpts(bytes.NewReader(snap), Options{}, func(machines int) (Policy, error) {
					rp = newStatefulFifo(machines, rejectAfter)
					return rp, nil
				})
				if err != nil {
					t.Fatalf("seed %d cut %d: restore: %v", seed, cut, err)
				}
				if rs.Fed() != cut {
					t.Fatalf("seed %d cut %d: restored session reports %d fed", seed, cut, rs.Fed())
				}
				for k := cut; k < len(ins.Jobs); k++ {
					if err := rs.Feed(ins.Jobs[k]); err != nil {
						t.Fatalf("seed %d cut %d: feeding restored session: %v", seed, cut, err)
					}
				}
				got, err := rs.Close()
				if err != nil {
					t.Fatalf("seed %d cut %d: closing restored session: %v", seed, cut, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d rejectAfter %d cut %d: restored outcome diverges from uninterrupted run", seed, rejectAfter, cut)
				}

				// The donor was only observed: it must continue unperturbed.
				for k := cut; k < len(ins.Jobs); k++ {
					if err := donor.Feed(ins.Jobs[k]); err != nil {
						t.Fatal(err)
					}
				}
				dout, err := donor.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, dout) {
					t.Fatalf("seed %d cut %d: Snapshot perturbed the donor session", seed, cut)
				}
			}
		}
	}
}

// TestSnapshotOfClosedSessionFails pins the ErrClosed path.
func TestSnapshotOfClosedSessionFails(t *testing.T) {
	s, err := NewSession(newStatefulFifo(2, 0), Options{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != ErrClosed {
		t.Fatalf("snapshot of closed session: %v", err)
	}
}

// TestSnapshotRequiresStatefulPolicy pins the loud failure for plain
// policies on both the save and restore sides.
func TestSnapshotRequiresStatefulPolicy(t *testing.T) {
	s, err := NewSession(newFifo(2, 0), Options{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err == nil || !strings.Contains(err.Error(), "StatefulPolicy") {
		t.Fatalf("snapshot with plain policy: %v", err)
	}
	ins := snapInstance(t, 50, 2, 1)
	snap, donor, _ := snapshotAt(t, ins, 0, 25)
	donor.Close()
	if _, err := RestoreOpts(bytes.NewReader(snap), Options{}, func(machines int) (Policy, error) {
		return newFifo(machines, 0), nil
	}); err == nil || !strings.Contains(err.Error(), "StatefulPolicy") {
		t.Fatalf("restore into plain policy: %v", err)
	}
}

// TestRestoreRejectsWrongPolicyTag pins the tag cross-check.
func TestRestoreRejectsWrongPolicyTag(t *testing.T) {
	ins := snapInstance(t, 60, 3, 2)
	snap, donor, _ := snapshotAt(t, ins, 3, 30)
	donor.Close()
	if _, err := RestoreOpts(bytes.NewReader(snap), Options{}, func(machines int) (Policy, error) {
		return &wrongTagFifo{newStatefulFifo(machines, 3)}, nil
	}); err == nil || !strings.Contains(err.Error(), "taken with policy") {
		t.Fatalf("tag mismatch accepted: %v", err)
	}
}

type wrongTagFifo struct{ *statefulFifo }

func (p *wrongTagFifo) SnapshotTag() string { return "other/v1" }

// TestRestoreRejectsTruncationAndCorruption sweeps every truncation length
// and a bit flip at every byte: Restore must fail with an error each time,
// never panic and never silently succeed into a different state.
func TestRestoreRejectsTruncationAndCorruption(t *testing.T) {
	ins := snapInstance(t, 120, 3, 5)
	snap, donor, _ := snapshotAt(t, ins, 2, 60)
	donor.Close()
	restore := func(b []byte) error {
		s, err := RestoreOpts(bytes.NewReader(b), Options{}, func(machines int) (Policy, error) {
			return newStatefulFifo(machines, 2), nil
		})
		if err == nil {
			s.Close()
		}
		return err
	}
	if err := restore(snap); err != nil {
		t.Fatalf("pristine snapshot must restore: %v", err)
	}
	for n := 0; n < len(snap); n++ {
		if err := restore(snap[:n]); err == nil {
			t.Fatalf("truncation at %d of %d bytes restored successfully", n, len(snap))
		}
	}
	step := len(snap)/997 + 1
	for n := 10; n < len(snap); n += step {
		mut := append([]byte(nil), snap...)
		mut[n] ^= 0x40
		if err := restore(mut); err == nil {
			t.Fatalf("bit flip at byte %d restored successfully", n)
		}
	}
}

// TestRestoreRejectsOversizedSessionCounts pins that the machine and job
// counts SESS declares are checked against the bytes left in the snapshot
// before they size anything: a snapshot whose SESS is resealed with a count
// no later section could hold fails at once, naming the count.
func TestRestoreRejectsOversizedSessionCounts(t *testing.T) {
	ins := snapInstance(t, 80, 3, 4)
	snap, donor, _ := snapshotAt(t, ins, 2, 40)
	donor.Close()
	// resealed returns snap with SESS's payload edited and every frame sealed
	// again, so the edit passes the CRC checks.
	resealed := func(edit func(sess []byte)) []byte {
		sr, err := snapshot.NewReader(snapshot.InPlace(snap))
		if err != nil {
			t.Fatal(err)
		}
		sw := snapshot.AppendWriter(nil)
		for {
			tag, d, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			payload := append([]byte(nil), d.Rest()...)
			if tag == tagSession {
				edit(payload)
			}
			sw.Section(tag, func(e *snapshot.Encoder) { e.Raw(payload) })
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		return sw.Bytes()
	}
	for _, c := range []struct {
		name string
		edit func(sess []byte)
		want string
	}{
		{"machines", func(b []byte) { le.PutUint32(b, 1<<20) }, "declares 1048576 machines"},
		{"jobs", func(b []byte) { le.PutUint64(b[4:], 1<<20) }, "declares 1048576 jobs"},
	} {
		_, err := RestoreOpts(bytes.NewReader(resealed(c.edit)), Options{}, func(machines int) (Policy, error) {
			return newStatefulFifo(machines, 2), nil
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: restore error %v, want one that %s", c.name, err, c.want)
		}
	}
}

// TestShardSnapshotRestoreFleet covers the fleet path: a sharded stream is
// quiesced and snapshotted mid-flight, each shard session is restored in a
// fresh shard fleet, and the combined final outcomes must equal a
// straight-through sharded run's.
func TestShardSnapshotRestoreFleet(t *testing.T) {
	const shards = 3
	ins := snapInstance(t, 600, 2, 7)

	run := func(snapshotAt int) ([]*sched.Outcome, []byte) {
		feeders := make([]Feeder, shards)
		sessions := make([]*Session, shards)
		for k := range feeders {
			s, err := NewSession(newStatefulFifo(ins.Machines, 0), Options{Machines: ins.Machines})
			if err != nil {
				t.Fatal(err)
			}
			sessions[k], feeders[k] = s, s
		}
		sh := newShard(feeders, nil, 16, 2)
		var snap []byte
		jobs := ins.Jobs
		if snapshotAt > 0 {
			for k := 0; k < snapshotAt; k++ {
				if err := sh.Feed(jobs[k]); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if snap, err = sh.AppendSnapshot(nil); err != nil {
				t.Fatal(err)
			}
			jobs = jobs[snapshotAt:]
		}
		for k := range jobs {
			if err := sh.Feed(jobs[k]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh.Wait(); err != nil {
			t.Fatal(err)
		}
		outs := make([]*sched.Outcome, shards)
		for k, s := range sessions {
			out, err := s.Close()
			if err != nil {
				t.Fatal(err)
			}
			outs[k] = out
		}
		return outs, snap
	}

	want, _ := run(0)
	_, snap := run(250)

	restored := make([]*Session, 0, shards)
	n, err := RestoreFleet(bytes.NewReader(snap), func(shard int, r io.Reader) error {
		s, err := RestoreOpts(r, Options{}, func(machines int) (Policy, error) {
			return newStatefulFifo(machines, 0), nil
		})
		if err != nil {
			return err
		}
		restored = append(restored, s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != shards {
		t.Fatalf("fleet restored %d shards, want %d", n, shards)
	}
	feeders := make([]Feeder, shards)
	for k, s := range restored {
		feeders[k] = s
	}
	sh := newShard(feeders, nil, 16, 2)
	for k := 250; k < len(ins.Jobs); k++ {
		if err := sh.Feed(ins.Jobs[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Wait(); err != nil {
		t.Fatal(err)
	}
	for k, s := range restored {
		out, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want[k], out) {
			t.Fatalf("shard %d: restored fleet outcome diverges from straight-through run", k)
		}
	}
}
