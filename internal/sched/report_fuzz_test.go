package sched

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// Value tables the report fuzz decoder indexes with input bytes. They hold
// the awkward floats on purpose: −0, NaN and ±Inf times, zero and NaN
// processing times, sub-Eps offsets.
var (
	reportTimes   = []float64{0, 1, 2, 3, 0.5, 4.25, 7, 1e9, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e-12, 2 + 1e-8, 12}
	reportOffsets = []float64{0, 0, 0.5, 1, 1e-8, -1e-9, -1, 3}
	reportProcs   = []float64{1, 2, 0.5, 3, 1.5, 1e-9, 0, math.NaN()}
	reportSpeeds  = []float64{1, 2, 0.5, 0, math.NaN(), math.Inf(1), 1 + 1e-3, -1}
	reportWeights = []float64{1, 2, 0.5, 3}
	reportDeads   = []float64{NoDeadline, 100, 1, 2.5}
)

// Job states of the report fuzz decoder (record byte 4, modulo 8).
const (
	stateRejected    = 3 // rejected at a time, never run
	statePartial     = 4 // ran half its volume, then rejected
	stateBoth        = 5 // run to completion, and in Rejected too
	stateNeither     = 6 // in neither map
	stateUnscheduled = 7 // in Completed with no execution
	// 0–2: run to completion on one machine.
)

// byteSource hands out a fuzz input one byte at a time, then zeros.
type byteSource []byte

func (b *byteSource) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// pick returns tab[i mod len(tab)].
func pick[T any](tab []T, i int) T { return tab[i%len(tab)] }

// reportInput decodes a FuzzOutcomeReport input into an instance and an
// outcome. Three header bytes give the machine count (1–4), α (0, 2 or 3)
// and the job count; each job then reads eight bytes:
//
//	0 id: dense (0–4), sparse 2^40+k (5), the previous job's id (6), −k−1 (7)
//	1 release, from reportTimes
//	2 weight (low 2 bits) and deadline
//	3 processing times, consecutive entries of reportProcs
//	4 state, see the state constants
//	5 machine (low 2 bits) and start offset after the release
//	6 assignment: the machine (0–3), none, the next machine, −1, 2^33+machine;
//	  then the split (bits 3–4): one interval, two on the machine, two across
//	  machines, or one at an odd speed (bits 5–7)
//	7 times: exact when not a multiple of 4, else reportTimes[b/4]
//
// Up to seven trailing entries follow, two bytes each, putting ids the
// instance does not hold into each map, or intervals on unknown jobs or
// machines. A short input reads as zeros.
func reportInput(data []byte) (*Instance, *Outcome) {
	b := byteSource(data)
	ins := &Instance{Machines: 1 + b.next()%4, Alpha: pick([]float64{0, 0, 2, 3}, b.next())}
	o := NewOutcome()
	n := b.next()
	for k := 0; k < n; k++ {
		idb, rel, wd, pb, st, mb, ab, tb := b.next(), b.next(), b.next(), b.next(), b.next(), b.next(), b.next(), b.next()
		id := k
		switch idb % 8 {
		case 5:
			id = k + 1<<40
		case 6:
			if k > 0 {
				id = ins.Jobs[k-1].ID
			}
		case 7:
			id = -k - 1
		}
		j := Job{ID: id, Release: pick(reportTimes, rel), Weight: pick(reportWeights, wd), Deadline: pick(reportDeads, wd/4)}
		for i := 0; i < ins.Machines; i++ {
			j.Proc = append(j.Proc, pick(reportProcs, pb+i))
		}
		ins.Jobs = append(ins.Jobs, j)

		m := (mb & 3) % ins.Machines
		start := j.Release + pick(reportOffsets, mb>>2)
		vol := j.Proc[m]
		if st%8 == statePartial {
			vol /= 2
		}
		end := start + vol
		if st%8 <= statePartial && st%8 != stateRejected || st%8 == stateBoth {
			switch (ab >> 3) & 3 {
			case 0:
				o.Intervals = append(o.Intervals, Interval{Job: id, Machine: m, Start: start, End: end, Speed: 1})
			case 1, 2:
				m2 := m
				if (ab>>3)&3 == 2 {
					m2 = (m + 1) % ins.Machines
				}
				mid := start + vol/2
				o.Intervals = append(o.Intervals,
					Interval{Job: id, Machine: m, Start: start, End: mid, Speed: 1},
					Interval{Job: id, Machine: m2, Start: mid + 1, End: end + 1, Speed: 1})
				end++
			case 3:
				o.Intervals = append(o.Intervals, Interval{Job: id, Machine: m, Start: start, End: end, Speed: pick(reportSpeeds, ab>>5)})
			}
		}
		at := func(exact float64) float64 {
			if tb%4 == 0 {
				return pick(reportTimes, tb/4)
			}
			return exact
		}
		switch st % 8 {
		case stateRejected:
			o.Rejected[id] = at(j.Release)
		case statePartial:
			o.Rejected[id] = at(end)
		case stateBoth:
			o.Completed[id] = end
			o.Rejected[id] = at(end)
		case stateNeither:
		case stateUnscheduled:
			o.Completed[id] = at(j.Release)
		default:
			o.Completed[id] = at(end)
		}
		switch ab & 7 {
		case 4:
		case 5:
			o.Assigned[id] = (m + 1) % ins.Machines
		case 6:
			o.Assigned[id] = -1
		case 7:
			o.Assigned[id] = 1<<33 + m
		default:
			o.Assigned[id] = m
		}
	}
	for e := b.next() % 8; e > 0; e-- {
		kind, tb := b.next(), b.next()
		unknown := 1<<50 + int(e)
		switch kind % 6 {
		case 0:
			o.Completed[unknown] = pick(reportTimes, tb)
		case 1:
			o.Rejected[unknown] = pick(reportTimes, tb)
		case 2:
			o.Assigned[unknown] = tb % 4
		case 3:
			o.Intervals = append(o.Intervals, Interval{Job: unknown, Start: 0, End: 1, Speed: 1})
		case 4, 5:
			// An interval on a machine the instance lacks; EnergyOf indexes
			// by machine, so only without energy.
			if ins.Alpha == 0 && len(ins.Jobs) > 0 {
				mach := ins.Machines
				if kind%6 == 5 {
					mach = -1
				}
				o.Intervals = append(o.Intervals, Interval{Job: ins.Jobs[0].ID, Machine: mach, Start: 0, End: 1, Speed: 1})
			}
		}
	}
	return ins, o
}

// sameMetrics reports whether every field of a and b holds the same bits.
func sameMetrics(a, b Metrics) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		switch fa, fb := va.Field(i), vb.Field(i); fa.Kind() {
		case reflect.Float64:
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		case reflect.Int:
			if fa.Int() != fb.Int() {
				return false
			}
		default:
			panic("sameMetrics: unhandled field kind " + fa.Kind().String())
		}
	}
	return true
}

// errText is err's text, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// reportCase runs ComputeMetrics and ValidateOutcome, under all 32
// ValidateModes, on the decoded input and holds each to the per-lookup
// reference: Metrics equal bit for bit, errors equal in text. Both sides
// share one scratch, so each call also meets arenas the other grew.
func reportCase(t *testing.T, data []byte) {
	t.Helper()
	ins, o := reportInput(data)
	var s scratch
	got, gerr := s.ComputeMetrics(ins, o)
	want, werr := s.computeMetricsPerLookup(ins, o)
	if errText(gerr) != errText(werr) || !sameMetrics(got, want) {
		t.Fatalf("%d jobs on %d machines: ComputeMetrics = %+v, %v; per-lookup reference %+v, %v", len(ins.Jobs), ins.Machines, got, gerr, want, werr)
	}
	for bits := 0; bits < 32; bits++ {
		mode := ValidateMode{
			AllowParallel:    bits&1 != 0,
			AllowPreemption:  bits&2 != 0,
			AllowMigration:   bits&4 != 0,
			RequireDeadlines: bits&8 != 0,
			RequireUnitSpeed: bits&16 != 0,
		}
		gerr, werr := s.ValidateOutcome(ins, o, mode), s.validateOutcomePerLookup(ins, o, mode)
		if errText(gerr) != errText(werr) {
			t.Fatalf("%d jobs on %d machines, %+v: ValidateOutcome says %v, per-lookup reference %v", len(ins.Jobs), ins.Machines, mode, gerr, werr)
		}
	}
}

// seedJob is one eight-byte job record of a report fuzz input.
type seedJob struct{ id, rel, wd, proc, state, mach, asg, time byte }

// reportSeed assembles a FuzzOutcomeReport input from a header, job records
// and trailing bytes (the extra-entry count and its pairs).
func reportSeed(machines, alpha byte, jobs []seedJob, trailer ...byte) []byte {
	out := []byte{machines, alpha, byte(len(jobs))}
	for _, j := range jobs {
		out = append(out, j.id, j.rel, j.wd, j.proc, j.state, j.mach, j.asg, j.time)
	}
	return append(out, trailer...)
}

// reportSeeds is FuzzOutcomeReport's seed corpus; TestOutcomeReportSeedsCover
// pins what it reaches.
func reportSeeds() [][]byte {
	ok := seedJob{time: 1} // job 0 at 0 on machine 0, completed at its end
	seeds := [][]byte{
		reportSeed(0, 0, nil),                                       // n = 0
		reportSeed(0, 0, []seedJob{ok}),                             // n = 1
		reportSeed(1, 2, []seedJob{ok, {rel: 1, mach: 1, time: 1}}), // n = 2, two machines, energy
		// Dense, then sparse ids; a duplicate instance id.
		reportSeed(1, 0, []seedJob{ok, {id: 5, rel: 1, mach: 1, time: 1}, {id: 6, rel: 2, time: 1, mach: 0x0c}}),
		// Rejections: at release, after a partial run, before release.
		reportSeed(1, 0, []seedJob{{state: stateRejected, time: 1}, {rel: 1, state: statePartial, mach: 1, time: 1}, {rel: 2, state: stateRejected, time: 4}}),
		// In both maps (rejected later than completed), in neither.
		reportSeed(0, 0, []seedJob{ok, {rel: 1, state: stateBoth, time: 6 * 4}}),
		reportSeed(0, 0, []seedJob{ok, {rel: 1, state: stateNeither, time: 1}}),
		// Unknown ids in every map, and intervals on unknown jobs and machines.
		reportSeed(0, 0, []seedJob{ok}, 6, 0, 1, 1, 2, 2, 3, 3, 0, 4, 0, 5, 0),
		// −0 and NaN completions, +Inf and −Inf rejections.
		reportSeed(0, 0, []seedJob{
			{state: stateUnscheduled, time: 8 * 4},
			{state: stateUnscheduled, time: 9 * 4},
			{state: stateRejected, time: 10 * 4},
			{state: stateRejected, time: 11 * 4},
		}),
	}
	// After a valid job on two machines, one job each: assigned to the other
	// machine, to −1, past int32 (2^33 on machine 0); split on one machine,
	// across two; at speed 0.5.
	for _, asg := range []byte{5, 6, 7, 1 << 3, 2 << 3, 3<<3 | 2<<5} {
		seeds = append(seeds, reportSeed(1, 0, []seedJob{ok, {rel: 1, asg: asg, time: 1}}))
	}
	// Ties at the p99 rank: 200 flows of five values under two outliers, so
	// the rank falls inside a run of equal flows below the maximum; and 150
	// zero flows, a few of them −0, so it falls among zeros of both signs.
	var ties, zeros []seedJob
	for k := 0; k < 200; k++ {
		j := seedJob{state: stateUnscheduled, time: byte(k%5) * 4}
		if k%100 == 1 {
			j.time = 7 * 4
		}
		ties = append(ties, j)
	}
	for k := 0; k < 150; k++ {
		j := seedJob{state: stateUnscheduled}
		if k%40 == 3 {
			j.time = 8 * 4
		}
		zeros = append(zeros, j)
	}
	return append(seeds, reportSeed(0, 0, ties), reportSeed(0, 0, zeros))
}

// FuzzOutcomeReport holds the view-based ComputeMetrics and ValidateOutcome
// to the per-lookup reference over fuzz-built instances and outcomes: dense,
// sparse and repeated job ids; jobs completed, rejected, both or neither;
// map entries and intervals for jobs and machines the instance lacks; −0,
// NaN and ±Inf times; and flow populations with ties at the p99 rank.
func FuzzOutcomeReport(f *testing.F) {
	for _, s := range reportSeeds() {
		f.Add(s)
	}
	f.Fuzz(reportCase)
}

// TestOutcomeReportSeedsCover pins that FuzzOutcomeReport's seed corpus
// reaches every case the differential test exists for.
func TestOutcomeReportSeedsCover(t *testing.T) {
	seen := map[string]bool{}
	for _, data := range reportSeeds() {
		reportCase(t, data)
		ins, o := reportInput(data)
		n := len(ins.Jobs)
		seen[map[int]string{0: "n=0", 1: "n=1", 2: "n=2"}[n]] = true
		var ids IDs
		if ids.Build(ins.Jobs) >= 0 {
			seen["duplicate ids"] = true
		}
		if n > 0 && ids.byID == nil {
			seen["dense ids"] = true
		}
		if ids.byID != nil {
			seen["sparse ids"] = true
		}
		for _, j := range ins.Jobs {
			_, c := o.Completed[j.ID]
			_, r := o.Rejected[j.ID]
			seen[map[[2]bool]string{{true, true}: "both maps", {false, false}: "neither map"}[[2]bool{c, r}]] = true
		}
		for _, m := range []map[int]float64{o.Completed, o.Rejected} {
			for id, v := range m {
				if ids.Of(id) < 0 {
					seen["unknown id"] = true
				}
				switch {
				case math.IsNaN(v):
					seen["NaN time"] = true
				case math.IsInf(v, 1):
					seen["+Inf time"] = true
				case math.IsInf(v, -1):
					seen["-Inf time"] = true
				case v == 0 && math.Signbit(v):
					seen["-0 time"] = true
				}
			}
		}
		var s scratch
		if m, err := s.computeMetricsPerLookup(ins, o); err == nil && n > 100 {
			flows := slices.Clone(s.flows)
			slices.Sort(flows)
			k := int(math.Ceil(0.99*float64(n))) - 1
			if flows[k] == flows[k-1] || flows[k] == flows[k+1] {
				seen["p99 tie"] = true
			}
			if m.P99Flow != flows[n-1] {
				seen["p99 below max"] = true
			}
		}
	}
	for _, want := range []string{"n=0", "n=1", "n=2", "dense ids", "sparse ids", "duplicate ids",
		"both maps", "neither map", "unknown id", "NaN time", "+Inf time", "-Inf time", "-0 time", "p99 tie", "p99 below max"} {
		if !seen[want] {
			t.Errorf("seed corpus never reaches %q", want)
		}
	}
}

// TestP99MatchesSort holds the selection to the sort it replaced on random
// populations of every size up to 600 whose values repeat heavily, the
// sorted and reversed orders, populations holding −0 or NaN, and negative
// populations whose rank falls among zeros of both signs, which the sort
// and a selection leave in different orders.
func TestP99MatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(flows []float64) {
		t.Helper()
		sorted := slices.Clone(flows)
		slices.Sort(sorted)
		want := quantileP99(sorted)
		if got := p99(slices.Clone(flows)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d flows: p99 = %v, sort gives %v", len(flows), got, want)
		}
	}
	for n := 0; n <= 600; n++ {
		distinct := 1 + rng.Intn(n+1)
		flows := make([]float64, n)
		for i := range flows {
			flows[i] = float64(rng.Intn(distinct)) - 3
		}
		check(flows)
		slices.Sort(flows)
		check(flows)
		slices.Reverse(flows)
		check(flows)
		if n > 0 {
			flows[rng.Intn(n)] = math.Copysign(0, -1)
			check(flows)
			flows[rng.Intn(n)] = math.NaN()
			check(flows)
		}
	}
	signed := []float64{math.Copysign(0, -1), 0, -1, -2}
	for n := 100; n <= 400; n++ {
		flows := make([]float64, n)
		for i := range flows {
			flows[i] = signed[rng.Intn(len(signed))]
		}
		check(flows)
	}
}
