// Cluster: a datacenter-like scenario — a burst-heavy, heavy-tailed stream
// of 2000 jobs on 8 unrelated machines. Compares the paper's rejection
// scheduler against the natural no-rejection baselines and shows the tail
// latency the 2ε rejection budget buys.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core/flowtime"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	cfg := workload.DefaultConfig(2000, 8, 2024)
	cfg.Sizes = workload.SizePareto // mice and elephants
	cfg.MaxSize = 200
	cfg.Arrivals = workload.ArrivalsBursty
	cfg.BurstSize = 25
	cfg.Load = 1.05 // slightly overloaded: the regime where rejection matters
	ins := workload.Random(cfg)

	t := stats.NewTable("cluster: 2000 Pareto jobs, 8 unrelated machines, load 1.05",
		"policy", "mean flow", "p99 flow", "max flow", "rejected%")

	add := func(name string, out *sched.Outcome) {
		// The speed-augmented comparator legitimately runs faster than
		// unit speed; everything else must be unit speed.
		mode := sched.ValidateMode{RequireUnitSpeed: name != "speed-augmented [ESA'16]"}
		if err := sched.ValidateOutcome(ins, out, mode); err != nil {
			log.Fatalf("%s produced an invalid schedule: %v", name, err)
		}
		m, err := sched.ComputeMetrics(ins, out)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRowf(name, m.MeanFlow, m.P99Flow, m.MaxFlow,
			100*float64(m.Rejected)/float64(len(ins.Jobs)))
	}

	for _, eps := range []float64{0.1, 0.25} {
		res, err := flowtime.Run(ins, flowtime.Options{Epsilon: eps})
		if err != nil {
			log.Fatal(err)
		}
		add(fmt.Sprintf("paper A(ε=%.2f)", eps), res.Outcome)
	}
	out, err := baseline.GreedySPT(ins)
	if err != nil {
		log.Fatal(err)
	}
	add("greedy-SPT (no rejection)", out)
	out, err = baseline.FCFS(ins)
	if err != nil {
		log.Fatal(err)
	}
	add("FCFS", out)
	out, err = baseline.SpeedAugmented(ins, 0.25, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	add("speed-augmented [ESA'16]", out)

	fmt.Println(unpad(t))
	fmt.Println("Rejecting a few percent of jobs collapses the tail that no-rejection")
	fmt.Println("policies accumulate behind elephant jobs — the paper's core point.")
}

// unpad drops the spaces that pad a table's last column, so each printed
// line ends in its text, as the Example's // Output: block holds it.
func unpad(t *stats.Table) string {
	lines := strings.Split(t.String(), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}
