// Package repro is a full reproduction of "Online Non-preemptive Scheduling
// on Unrelated Machines with Rejections" (Lucarelli, Moseley, Thang,
// Srivastav, Trystram — SPAA 2018, arXiv:1802.10309) as a production-quality
// Go library.
//
// The library lives under internal/ (see DESIGN.md for the system
// inventory), the runnable entry points are:
//
//   - cmd/schedbench — regenerate the paper-derived tables and figures of
//     EXPERIMENTS.md
//   - cmd/tracegen, cmd/schedsim — generate NDJSON workload traces and
//     replay them under any implemented policy, in batch or streaming
//     (-stream) form; schedsim -compare prices non-preemption against the
//     engine-hosted preemptive SRPT comparators with experiment E15's code
//   - cmd/schedserve, cmd/loadgen — the network front door and its load
//     driver
//   - examples/* — six runnable scenarios built on the library API
//
// Performance is measured by `go run ./benchmark` (BENCHMARK.json); the
// benchmarks in bench_test.go (this package) are end-to-end runs for
// profiling and record nothing.
package repro
