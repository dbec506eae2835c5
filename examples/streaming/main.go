// Streaming: schedule an endless-looking job stream online, one job at a
// time, with the engine session API — no instance is ever materialized —
// then scale the same stream out across sharded sessions.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	"repro/internal/core/flowtime"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	// A generated workload stands in for a live job source; jobs only have
	// to arrive in release order, exactly the paper's online model.
	cfg := workload.DefaultConfig(20000, 4, 42)
	cfg.Load = 1.2
	jobs := workload.Random(cfg).Jobs

	// --- One streaming session ------------------------------------------
	s, err := flowtime.NewSession(4, flowtime.Options{Epsilon: 0.2})
	if err != nil {
		log.Fatal(err)
	}
	for _, j := range jobs {
		// Feed dispatches the job immediately: rejections and completions
		// materialize while the stream is still open.
		if err := s.Feed(j); err != nil {
			log.Fatal(err)
		}
	}
	res, err := s.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single session: %d completed, %d rejected (rule1=%d rule2=%d)\n",
		len(res.Outcome.Completed), len(res.Outcome.Rejected),
		res.Rule1Rejections, res.Rule2Rejections)

	// --- Four sharded sessions ------------------------------------------
	// Each shard is an independent 4-machine scheduler; jobs are routed by
	// id, so the same stream fans out across 16 machines with no shared
	// state — the scale-out unit for heavy traffic.
	const shards = 4
	sessions := make([]*flowtime.Session, shards)
	feeders := make([]engine.Feeder, shards)
	for k := range sessions {
		if sessions[k], err = flowtime.NewSession(4, flowtime.Options{Epsilon: 0.2}); err != nil {
			log.Fatal(err)
		}
		feeders[k] = sessions[k]
	}
	sh := engine.NewShardOpts(feeders, engine.ShardOptions{})
	for _, j := range jobs {
		if err := sh.Feed(j); err != nil {
			log.Fatal(err)
		}
	}
	if err := sh.Wait(); err != nil {
		log.Fatal(err)
	}
	total := 0
	var outs []*sched.Outcome
	for _, sess := range sessions {
		r, err := sess.Close()
		if err != nil {
			log.Fatal(err)
		}
		outs = append(outs, r.Outcome)
		total += len(r.Outcome.Completed) + len(r.Outcome.Rejected)
	}
	fmt.Printf("%d shards: %d jobs accounted across %d outcomes\n", shards, total, len(outs))
}
