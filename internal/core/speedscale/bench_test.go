package speedscale

import (
	"testing"

	"repro/internal/workload"
)

func benchRun(b *testing.B, n, m int) {
	cfg := workload.DefaultConfig(n, m, 3)
	cfg.Weighted = true
	cfg.Load = 1.1
	ins := workload.Random(cfg)
	ins.Alpha = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ins, Options{Epsilon: 0.3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRun1kJobs2Machines(b *testing.B) { benchRun(b, 1000, 2) }
func BenchmarkRun5kJobs4Machines(b *testing.B) { benchRun(b, 5000, 4) }

func BenchmarkRunWithDualTracking(b *testing.B) {
	cfg := workload.DefaultConfig(2000, 2, 3)
	cfg.Weighted = true
	ins := workload.Random(cfg)
	ins.Alpha = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ins, Options{Epsilon: 0.3, TrackDual: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunDeepPending runs at the engine benchmark's shape rather than
// load 1.1: 16 machines at load 1.3 with weighted Pareto sizes, where the
// pending lists λ_ij reads are tens of entries deep.
func BenchmarkRunDeepPending(b *testing.B) {
	ins := deepInstance(20000, 3, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ins, Options{Epsilon: 0.3}); err != nil {
			b.Fatal(err)
		}
	}
}
