package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/admission"
	"repro/internal/front"
	"repro/internal/lowerbound"
	"repro/internal/sched"
)

// pinsJSON holds the SHA-256 of every workload's report (wire) or outcome
// set (engine_batch) for the default seed, full size and quick size. The
// contract fixes BENCHMARK.json's keys, so the pins live beside the code.
// Regenerate with -update-pins after a change that is meant to alter
// scheduling outcomes.
//
//go:embed pins.json
var pinsJSON []byte

const defaultSeed = 7

// pins maps size ("full" | "quick") → workload → digest.
type pins map[string]map[string]string

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checks accumulates the correctness verdicts of one workload. Each failed
// check counts once into failed_share, on top of the jobs that went
// undecided or came back with an error.
type checks struct {
	failed []string
}

func (c *checks) failf(format string, args ...any) {
	c.failed = append(c.failed, fmt.Sprintf(format, args...))
}

// auditReport re-implements cmd/loadgen's drain audit, plus the paper's
// budgets: Theorem 1 (flowtime rejects at most 2ε·fed jobs) and Theorem 2
// (speedscale rejects at most ε·W weight, W the fed weight).
func (c *checks) auditReport(raw []byte, submitted int) *front.Report {
	var rep front.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		c.failf("decoding the drained report: %v", err)
		return nil
	}
	if rep.Fed+rep.PreRejected != submitted {
		c.failf("server decided %d jobs (%d fed + %d pre-rejected), clients submitted %d",
			rep.Fed+rep.PreRejected, rep.Fed, rep.PreRejected, submitted)
	}
	if rep.Completed+rep.Rejected != rep.Fed {
		c.failf("fed %d but completed %d + rejected %d", rep.Fed, rep.Completed, rep.Rejected)
	}
	acfg := admission.Config{Epsilon: rep.AdmissionEpsilon, Burst: rep.AdmissionBurst}
	fedWeight := 0.0
	for _, tr := range rep.Tenants {
		ten := admission.Tenant{ID: tr.ID, Fed: tr.Fed, FedWeight: tr.FedWeight,
			PreRejected: tr.PreRejected, PreRejectedWeight: tr.PreRejectedWeight}
		if err := admission.BudgetInvariant(acfg, ten, 1e-9); err != nil {
			c.failf("%v", err)
		}
		if tr.Completed+tr.Rejected != tr.Fed {
			c.failf("tenant %d: fed %d but completed %d + rejected %d", tr.ID, tr.Fed, tr.Completed, tr.Rejected)
		}
		fedWeight += tr.FedWeight
	}
	switch rep.Policy {
	case "flowtime":
		if float64(rep.Rejected) > 2*rep.Epsilon*float64(rep.Fed) {
			c.failf("Theorem 1 budget: %d rejected > 2ε·fed = %g", rep.Rejected, 2*rep.Epsilon*float64(rep.Fed))
		}
	case "speedscale":
		if rep.RejectedWeight > rep.Epsilon*fedWeight*(1+1e-12) {
			c.failf("Theorem 2 budget: rejected weight %g > ε·W = %g", rep.RejectedWeight, rep.Epsilon*fedWeight)
		}
	}
	return &rep
}

// verifyWire runs every check the wire workloads share and returns the
// deterministic metrics read off the report. reference is the report of the
// same streams pushed through an in-process front.Server without interruption.
func (c *checks) verifyWire(w *workload, reps []*wireRep, reference []byte, all []sched.Job, pinned string) (rejectedShare, flowRatio float64) {
	for k, r := range reps {
		for _, p := range r.problems {
			c.failf("rep %d: %s", k, p)
		}
		if r.missing+r.extraAcks > 0 {
			c.failf("rep %d: %d jobs never decided, %d stray acks", k, r.missing, r.extraAcks)
		}
		// Admission is off, so no verdict is a pre-rejection; dups appear only
		// in a replay.
		if r.acks['r'] > 0 || (w.killAt == 0 && r.acks['d'] > 0) {
			c.failf("rep %d: unexpected verdicts: %d rej, %d dup", k, r.acks['r'], r.acks['d'])
		}
		if !bytes.Equal(r.report, reps[0].report) {
			c.failf("rep %d: report differs from rep 0's", k)
		}
	}
	raw := reps[0].report
	if !bytes.Equal(raw, reference) {
		c.failf("wire report differs from the in-process reference (%s vs %s)", digest(raw)[:12], digest(reference)[:12])
	}
	if pinned != "" && digest(raw) != pinned {
		c.failf("report digest %s is not the pinned %s", digest(raw), pinned)
	}
	rep := c.auditReport(raw, w.jobs())
	if rep == nil {
		return 0, 0
	}
	// The yardstick pools the fleet: one machine of speed m·shards serving
	// min_i p_ij preemptively. For flowtime it is a true lower bound; under
	// speed scaling machines may run faster than 1, so there it is only a
	// fixed reference that makes the ratio comparable across commits.
	bound := lowerbound.SRPTBound(&sched.Instance{Machines: rep.Machines * rep.Shards, Jobs: all})
	return float64(rep.Rejected+rep.PreRejected) / float64(w.jobs()), rep.TotalFlow / bound
}

// outcomeDigest hashes an outcome canonically: every job in id order with
// its verdict, instant and machine, then the interval log as recorded (the
// simulation is deterministic, so its order is part of the outcome).
func outcomeDigest(h io.Writer, ins *sched.Instance, o *sched.Outcome) {
	ids := make([]int, len(ins.Jobs))
	for k := range ins.Jobs {
		ids[k] = ins.Jobs[k].ID
	}
	slices.Sort(ids)
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, id := range ids {
		t, done := o.Completed[id]
		if !done {
			t = o.Rejected[id]
		}
		put(uint64(id))
		put(math.Float64bits(t))
		put(uint64(o.Assigned[id])<<1 | uint64(b2i(done)))
	}
	for _, iv := range o.Intervals {
		put(uint64(iv.Job))
		put(uint64(iv.Machine))
		put(math.Float64bits(iv.Start))
		put(math.Float64bits(iv.End))
		put(math.Float64bits(iv.Speed))
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
