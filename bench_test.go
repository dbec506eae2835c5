package repro

// End-to-end batch-run benchmarks for profiling (`go test -bench . -cpuprofile
// ...`); recorded performance figures come from `go run ./benchmark`, not from
// here. Micro-benchmarks for the hot paths (dispatch, rank index, LP pivots)
// live in their packages.

import (
	"testing"

	"repro/internal/core/energymin"
	"repro/internal/core/flowtime"
	"repro/internal/core/speedscale"
	"repro/internal/workload"
)

func BenchmarkFlowtimeEndToEnd(b *testing.B) {
	cfg := workload.DefaultConfig(5000, 8, 3)
	cfg.Load = 1.1
	ins := workload.Random(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flowtime.Run(ins, flowtime.Options{Epsilon: 0.2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowtimeEndToEndDualTracking(b *testing.B) {
	cfg := workload.DefaultConfig(5000, 8, 3)
	cfg.Load = 1.1
	ins := workload.Random(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flowtime.Run(ins, flowtime.Options{Epsilon: 0.2, TrackDual: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeedscaleEndToEnd(b *testing.B) {
	cfg := workload.DefaultConfig(2000, 4, 3)
	cfg.Weighted = true
	cfg.Load = 1.1
	ins := workload.Random(cfg)
	ins.Alpha = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := speedscale.Run(ins, speedscale.Options{Epsilon: 0.3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnergyminEndToEnd(b *testing.B) {
	ins := workload.RandomDeadline(workload.DeadlineConfig{
		N: 200, M: 2, Seed: 3, Horizon: 300, MinVol: 1, MaxVol: 8, Slack: 3, Alpha: 2,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := energymin.Run(ins, energymin.Options{LengthGridRatio: 1.2}); err != nil {
			b.Fatal(err)
		}
	}
}
