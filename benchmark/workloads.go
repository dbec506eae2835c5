package main

// workload is one named set of inputs and the way it is driven. The sizes
// here are the pinned ones: changing any of them changes the report digests
// in pins.json and breaks comparability with every recorded run.
type workload struct {
	name string
	// args is the server the streams are sent to: the system under test for
	// the wire workloads; for engine_batch only the traced run uses it (to
	// price the same jobs at every peeling level).
	args    serverArgs
	streams []streamSpec // one per tenant

	rate   float64 // open loop: aggregate wall-clock jobs/s (0: closed loop)
	killAt int     // durable: SIGKILL the server at this many acks (0: never)
	batch  bool    // engine_batch: the end-to-end run is in-process batch Run
}

const (
	floodBatch  = 64   // job lines per closed-loop write
	floodWindow = 8192 // closed loop: jobs in flight per connection

	quickShrink = 50 // -quick divides every size by this
)

func (w *workload) jobs() int {
	n := 0
	for _, s := range w.streams {
		n += s.N
	}
	return n
}

// paceNS is the open-loop scale: nanoseconds of wall clock per simulated
// time unit, one value for every tenant.
func (w *workload) paceNS() float64 {
	if w.rate == 0 {
		return 0
	}
	simRate := 0.0
	for _, s := range w.streams {
		simRate += s.rate()
	}
	return simRate / w.rate * 1e9
}

// allWorkloads builds the four workloads for a seed.
func allWorkloads(seed int64, quick bool) []*workload {
	shrink := 1
	if quick {
		shrink = quickShrink
	}
	flowtime := func(machines, jobs int) serverArgs {
		return serverArgs{Policy: "flowtime", Eps: 0.2, Machines: machines, Shards: 2, Tenants: 2, SizeHint: jobs}
	}
	uniform := func(tenant, n int) streamSpec {
		return streamSpec{Tenant: tenant, N: n / shrink, Machines: 8, Sizes: sizeUniform, Load: 1.2}
	}
	flood := &workload{name: "wire_flood", args: flowtime(8, 500000/shrink),
		streams: []streamSpec{uniform(0, 250000), uniform(1, 250000)}}

	// 80/20 tenant skew on one clock: tenant 0 offers four times tenant 1's
	// rate, so both streams span the same simulated (and wall-clock) interval.
	skewed := func(tenant, n int, load float64) streamSpec {
		return streamSpec{Tenant: tenant, N: n / shrink, Machines: 8, Sizes: sizePareto, Burst: 10, Load: load, Weighted: true}
	}
	paced := &workload{name: "wire_paced", rate: 40000,
		args:    serverArgs{Policy: "speedscale", Eps: 0.2, Alpha: 2, Machines: 8, Shards: 2, Tenants: 2, SizeHint: 200000 / shrink},
		streams: []streamSpec{skewed(0, 160000, 0.96), skewed(1, 40000, 0.24)}}

	durable := &workload{name: "wire_durable", args: flowtime(8, 200000/shrink), killAt: 130000 / shrink,
		streams: []streamSpec{uniform(0, 100000), uniform(1, 100000)}}
	durable.args.Every, durable.args.Deltas, durable.args.Keep = 20000/shrink, 8, 3

	engine := &workload{name: "engine_batch", batch: true, args: flowtime(16, 200000/shrink),
		streams: []streamSpec{
			{Tenant: 0, N: 100000 / shrink, Machines: 16, Sizes: sizePareto, Load: 1.3, Weighted: true},
			{Tenant: 1, N: 100000 / shrink, Machines: 16, Sizes: sizeUniform, Burst: 10, Load: 0.9, Weighted: true},
		}}

	all := []*workload{flood, paced, durable, engine}
	for k, w := range all {
		for t := range w.streams {
			w.streams[t].Seed = tenantSeed(seed, 16*k+t) // every stream of every workload its own PRNG
		}
	}
	return all
}
