// Deadline: energy minimization with hard deadlines (Theorem 3). Jobs with
// windows land on two speed-scalable machines; the greedy configuration-LP
// scheduler picks a (machine, start, length) strategy per job against the
// AVR comparator and the solo lower bound, across deadline-slack regimes.
//
//	go run ./examples/deadline
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core/energymin"
	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	const alpha = 2.0
	t := stats.NewTable(fmt.Sprintf("deadline: 150 jobs, 2 machines, α=%.0f, horizon 300", alpha),
		"slack", "greedy energy", "AVR energy", "solo LB", "greedy/LB", "AVR/greedy", "α^α bound")

	for _, slack := range []float64{1.2, 2, 4, 8} {
		ins := workload.RandomDeadline(workload.DeadlineConfig{
			N: 150, M: 2, Seed: 11, Horizon: 300,
			MinVol: 1, MaxVol: 10, Slack: slack, Alpha: alpha,
		})
		greedy, err := energymin.Run(ins, energymin.Options{})
		if err != nil {
			log.Fatal(err)
		}
		mode := sched.ValidateMode{AllowParallel: true, RequireDeadlines: true}
		if err := sched.ValidateOutcome(ins, greedy.Outcome, mode); err != nil {
			log.Fatalf("greedy schedule invalid: %v", err)
		}
		avr, err := energymin.Run(ins, energymin.Options{FullWindowOnly: true})
		if err != nil {
			log.Fatal(err)
		}
		lb := lowerbound.SoloEnergy(ins)
		t.AddRowf(slack, greedy.Energy, avr.Energy, lb,
			greedy.Energy/lb, avr.Energy/greedy.Energy, energymin.TheoryRatio(alpha))
	}
	fmt.Println(unpad(t))
	fmt.Println("Tight windows (slack≈1) force high speeds — energy is dominated by")
	fmt.Println("feasibility. With loose windows the greedy spreads load across slots")
	fmt.Println("and machines, beating AVR's fixed full-window strategy.")
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
