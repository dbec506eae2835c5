package energymin

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

func benchRun(b *testing.B, n, horizon int, grid float64) {
	ins := workload.RandomDeadline(workload.DeadlineConfig{
		N: n, M: 2, Seed: 3, Horizon: horizon, MinVol: 1, MaxVol: 8, Slack: 3, Alpha: 2,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ins, Options{LengthGridRatio: grid}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunExhaustiveGrid(b *testing.B) { benchRun(b, 150, 250, 0) }
func BenchmarkRunGeometricGrid(b *testing.B)  { benchRun(b, 150, 250, 1.25) }
func BenchmarkRunLongHorizon(b *testing.B)    { benchRun(b, 100, 1000, 1.25) }

// loadedScheduler returns a scheduler whose speed profiles already carry 50
// commitments, and a job to place on it: Place's search cost on a loaded
// profile is what the benchmark times and the alloc test pins.
func loadedScheduler(tb testing.TB) (*Scheduler, *sched.Job) {
	ins := workload.RandomDeadline(workload.DeadlineConfig{
		N: 50, M: 2, Seed: 3, Horizon: 200, MinVol: 1, MaxVol: 8, Slack: 4, Alpha: 2,
	})
	s, err := New(Options{Machines: 2, Alpha: 2, Horizon: 200, LengthGridRatio: 1.25})
	if err != nil {
		tb.Fatal(err)
	}
	for k := range ins.Jobs {
		if _, err := s.Place(&ins.Jobs[k]); err != nil {
			tb.Fatal(err)
		}
	}
	return s, &ins.Jobs[0]
}

func BenchmarkPlaceSingle(b *testing.B) {
	s, j := loadedScheduler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Place(j); err != nil {
			b.Fatal(err)
		}
	}
}
