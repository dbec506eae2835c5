// Package chaos is the fault-injection harness of the network front door:
// deterministic fault schedules (seeded PRNG), a shard-stalling feeder
// wrapper that manufactures downstream overload, and a streaming NDJSON
// client (client.go) that retries with exponential backoff and jitter while
// killing its own connections and truncating frames mid-batch.
//
// Everything here is deterministic given its seed, so a chaos run that
// trips an invariant can be replayed. The harness never reaches into
// scheduler internals: it attacks the system exactly where production
// faults land — the socket, the frame, the worker's clock.
package chaos

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/sched"
)

// Rand is a tiny deterministic PRNG (splitmix64) for fault schedules and
// backoff jitter. The zero value is a valid seed.
type Rand struct{ s uint64 }

// NewRand seeds a Rand.
func NewRand(seed uint64) *Rand { return &Rand{s: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Float64 returns a uniform pseudo-random value in [0, 1).
func (r *Rand) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Intn returns a uniform pseudo-random value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Stall configures a shard-stalling fault: after every Every jobs ingested,
// the wrapped feeder sleeps for Delay before continuing — a worker that
// periodically "loses" its CPU, the canonical way to drive queue depth up
// without touching scheduler code.
type Stall struct {
	Every int
	Delay time.Duration
}

// Enabled reports whether the stall does anything.
func (s Stall) Enabled() bool { return s.Every > 0 && s.Delay > 0 }

// StallFeeder wraps a shard feeder with a Stall. It forwards FeedBatch and
// the in-place capture (SnapshotSize, SnapshotInto), so a stalled fleet
// still checkpoints (engine.Shard requires its feeders to be
// SessionSnapshotters). The stall runs on the shard
// worker's goroutine — exactly where a real slow worker would burn the time.
type StallFeeder struct {
	inner engine.Feeder
	stall Stall
	n     int
}

// NewStallFeeder wraps inner with the given stall schedule.
func NewStallFeeder(inner engine.Feeder, s Stall) *StallFeeder {
	return &StallFeeder{inner: inner, stall: s}
}

// tick advances the ingestion counter by n jobs and sleeps once per Every
// boundary crossed.
func (f *StallFeeder) tick(n int) {
	if !f.stall.Enabled() {
		return
	}
	before := f.n / f.stall.Every
	f.n += n
	if crossings := f.n/f.stall.Every - before; crossings > 0 {
		time.Sleep(time.Duration(crossings) * f.stall.Delay)
	}
}

// FeedBatch forwards a batch, stalling once per schedule boundary the batch
// crosses.
func (f *StallFeeder) FeedBatch(jobs []sched.Job) error {
	f.tick(len(jobs))
	return f.inner.FeedBatch(jobs)
}

// SnapshotSize forwards to the inner feeder's capture sizing.
func (f *StallFeeder) SnapshotSize() (size, want int, err error) {
	ss, err := f.snapshotter()
	if err != nil {
		return 0, 0, err
	}
	return ss.SnapshotSize()
}

// SnapshotInto forwards to the inner feeder's in-place capture.
func (f *StallFeeder) SnapshotInto(dst []byte) error {
	ss, err := f.snapshotter()
	if err != nil {
		return err
	}
	return ss.SnapshotInto(dst)
}

func (f *StallFeeder) snapshotter() (engine.SessionSnapshotter, error) {
	if ss, ok := f.inner.(engine.SessionSnapshotter); ok {
		return ss, nil
	}
	return nil, fmt.Errorf("chaos: inner feeder %T cannot be snapshotted", f.inner)
}
