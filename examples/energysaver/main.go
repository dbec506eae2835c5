// Energysaver: weighted flow time plus energy under speed scaling
// (Theorem 2). A three-machine cluster with weighted jobs; shows how the
// ε-budget trades rejected weight for objective value and how the speed
// scaler splits cost between waiting and watts.
//
//	go run ./examples/energysaver
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core/speedscale"
	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	const alpha = 2.0 // P(s) = s²: the classic dynamic-power model

	cfg := workload.DefaultConfig(800, 3, 7)
	cfg.Weighted = true
	cfg.Load = 1.1
	ins := workload.Random(cfg)
	ins.Alpha = alpha

	lb := lowerbound.SoloFlowEnergy(ins)
	t := stats.NewTable(fmt.Sprintf("energysaver: 800 weighted jobs, 3 machines, α=%.0f (solo LB %.0f)", alpha, lb),
		"eps", "wflow", "energy", "objective", "ratio vs LB", "rejected weight%", "budget%")

	for _, eps := range []float64{0.1, 0.2, 0.4, 0.6} {
		res, err := speedscale.Run(ins, speedscale.Options{Epsilon: eps})
		if err != nil {
			log.Fatal(err)
		}
		if err := sched.ValidateOutcome(ins, res.Outcome, sched.ValidateMode{}); err != nil {
			log.Fatalf("invalid schedule: %v", err)
		}
		m, err := sched.ComputeMetrics(ins, res.Outcome)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRowf(eps, m.WeightedFlow, m.Energy, m.WeightedFlowPlusEnergy(),
			m.WeightedFlowPlusEnergy()/lb,
			100*res.RejectedWeight/ins.TotalWeight(), 100*eps)
	}
	fmt.Println(unpad(t))
	fmt.Println("The machine speed is frozen per execution at γ·(pending weight)^(1/α):")
	fmt.Println("backlog raises speed (more energy), idle periods save it, and the")
	fmt.Println("rejected weight never exceeds the ε budget of Theorem 2.")
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
