package engine_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core/flowtime"
	"repro/internal/core/speedscale"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/workload"
)

// fleetSession starts one shard's session of registry policy name; with dual
// set, flowtime and speedscale track their duals, whose per-job state makes
// the policy section grow with the stream.
func fleetSession(t *testing.T, name string, m int, dual bool) *engine.Session {
	t.Helper()
	var s *engine.Session
	var err error
	switch {
	case dual && name == "flowtime":
		var ts *flowtime.Session
		ts, err = flowtime.NewSession(m, flowtime.Options{Epsilon: 0.2, TrackDual: true})
		if ts != nil {
			s = ts.Session
		}
	case dual && name == "speedscale":
		var ts *speedscale.Session
		ts, err = speedscale.NewSession(m, speedscale.Options{Epsilon: 0.2, Alpha: 2, TrackDual: true})
		if ts != nil {
			s = ts.Session
		}
	default:
		entry, _ := policy.Lookup(name)
		s, err = entry.New(m, policy.Params{Epsilon: 0.2, Alpha: 2})
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fleetCase runs a fleet of 1+shards%3 sessions of registry policy pol%5
// (duals tracked when dual is set, shard 0 behind a chaos.StallFeeder when
// stall is) over a 1+n%300-job instance drawn from seed, and captures it at
// two stop points drawn from stops, into one reused buffer behind a prefix.
// Each capture must be the bytes of the encode-then-Nest reference.
func fleetCase(t *testing.T, seed int64, pol, shards uint8, n uint16, stops uint32, dual, stall bool) {
	t.Helper()
	name := policy.Names()[int(pol)%len(policy.Names())]
	const m = 3
	sessions := make([]*engine.Session, 1+int(shards)%3)
	feeders := make([]engine.Feeder, len(sessions))
	for k := range sessions {
		sessions[k] = fleetSession(t, name, m, dual)
		defer sessions[k].Close()
		feeders[k] = sessions[k]
	}
	if stall {
		feeders[0] = chaos.NewStallFeeder(sessions[0], chaos.Stall{Every: 16, Delay: time.Microsecond})
	}
	sh := engine.NewShardOpts(feeders, engine.ShardOptions{})
	defer sh.Wait()

	cfg := workload.DefaultConfig(1+int(n)%300, m, seed)
	cfg.Load = 1.3
	cfg.Weighted = seed%2 == 0
	jobs := workload.Random(cfg).Jobs
	a, b := int(stops&0xFFFF)%(len(jobs)+1), int(stops>>16)%(len(jobs)+1)
	prefix := []byte("front sections")
	var buf []byte
	fed := 0
	for _, stop := range []int{min(a, b), max(a, b)} {
		if err := sh.FeedBatch(jobs[fed:stop]); err != nil {
			t.Fatal(err)
		}
		fed = stop
		got, err := sh.AppendSnapshot(append(buf[:0], prefix...))
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.AppendFleetNested(sessions, append([]byte(nil), prefix...))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s, %d shards, dual %v, stall %v, %d jobs fed: in-place capture of %d bytes differs from the nested reference's %d",
				name, len(sessions), dual, stall, fed, len(got), len(want))
		}
		buf = got
	}
}

// FuzzFleetCapture holds the in-place fleet capture, where every session
// sizes its snapshot and then encodes it straight into its region of the
// caller's buffer, to the capture it replaced (each session encoded into a
// buffer of its own, then copied into the fleet by Nest), byte for byte:
// every registry policy, duals tracked, one to three shards, a stalled shard,
// random stop points.
func FuzzFleetCapture(f *testing.F) {
	for pol := range policy.Names() {
		for shards := 0; shards < 3; shards++ {
			f.Add(int64(7*pol+shards), uint8(pol), uint8(shards), uint16(120+60*shards), uint32(40+(90+20*pol)<<16), pol%2 == 0, shards == 1)
		}
	}
	f.Fuzz(fleetCase)
}
