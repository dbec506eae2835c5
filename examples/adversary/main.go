// Adversary: both of the paper's lower-bound constructions, live.
//
//  1. Lemma 1 — the two-phase family that defeats every policy forced to
//     accept/reject at arrival time: ratio grows with √Δ (our concrete
//     work-conserving baseline suffers Θ(Δ)) while the paper's algorithm A,
//     free to reject mid-execution, stays flat.
//
//  2. Lemma 2 — the adaptive single-machine adversary for deadline energy:
//     it watches the greedy scheduler commit and releases the next job
//     inside the committed window; the measured ratio grows with α between
//     the proven (α/9)^α and α^α envelopes.
//
//     go run ./examples/adversary
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core/energymin"
	"repro/internal/core/flowtime"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	lemma1()
	lemma2()
}

func lemma1() {
	t := stats.NewTable("Lemma 1 — immediate rejection is Ω(√Δ), algorithm A is O(1)",
		"L (√Δ)", "Δ", "immediate/ADV", "A(ε=0.5)/ADV")
	for _, l := range []float64{4, 8, 16, 32} {
		ins := workload.Lemma1Instance(l, 0.5)
		adv, err := sched.ComputeMetrics(ins, workload.Lemma1Adversary(ins))
		if err != nil {
			log.Fatal(err)
		}
		out, err := baseline.ImmediateReject(ins, 0.5, 3)
		if err != nil {
			log.Fatal(err)
		}
		imm, err := sched.ComputeMetrics(ins, out)
		if err != nil {
			log.Fatal(err)
		}
		res, err := flowtime.Run(ins, flowtime.Options{Epsilon: 0.5})
		if err != nil {
			log.Fatal(err)
		}
		ma, err := sched.ComputeMetrics(ins, res.Outcome)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRowf(l, l*l, imm.TotalFlow/adv.TotalFlow, ma.TotalFlow/adv.TotalFlow)
	}
	fmt.Println(unpad(t))
}

func lemma2() {
	t := stats.NewTable("Lemma 2 — adaptive adversary vs greedy energy scheduler",
		"alpha", "jobs released", "greedy energy", "ADV budget", "ratio", "(α/9)^α", "α^α")
	for _, alpha := range []float64{2, 3, 4, 5} {
		horizon := int(math.Pow(3, alpha+1))
		sc, err := energymin.New(energymin.Options{
			Machines: 1, Alpha: alpha, Horizon: horizon, LengthGridRatio: 1.25,
		})
		if err != nil {
			log.Fatal(err)
		}
		id := 0
		jobs, adv := workload.Lemma2Duel(alpha, func(r, d, v float64) workload.Commitment {
			j := &sched.Job{ID: id, Release: r, Weight: 1, Deadline: d, Proc: []float64{v}}
			id++
			pl, err := sc.Place(j)
			if err != nil {
				log.Fatalf("placement failed mid-duel: %v", err)
			}
			return workload.Commitment{Start: float64(pl.Start), End: float64(pl.Start + pl.Length)}
		})
		t.AddRowf(alpha, len(jobs), sc.Energy(), adv, sc.Energy()/adv,
			energymin.Lemma2Bound(alpha), energymin.TheoryRatio(alpha))
	}
	fmt.Println(unpad(t))
	fmt.Println("Each released job nests inside the window the algorithm just committed")
	fmt.Println("to, forcing overlap after overlap; the adversary itself serves every")
	fmt.Println("job at speed 1 with no overlap at all.")
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
