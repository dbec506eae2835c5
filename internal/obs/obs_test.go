package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	c.Store(7)
	if got := c.Value(); got != 7 {
		t.Fatalf("counter after Store = %d, want 7", got)
	}
	var g Gauge
	g.Set(1.5)
	g.Add(-0.25)
	if got := g.Value(); got != 1.25 {
		t.Fatalf("gauge = %g, want 1.25", got)
	}
}

// TestNilSafety exercises every metric method on nil receivers and a
// nil registry: the documented disabled mode must never panic.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	c.Store(9)
	if c.Value() != 0 {
		t.Fatal("nil counter value != 0")
	}
	var g *Gauge
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value != 0")
	}
	var h *Histogram
	h.Record(5)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot non-empty")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry handed out a live metric")
	}
	r.GaugeFunc("x", func() float64 { return 1 })
	r.RegisterCounter("x", &Counter{})
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("jobs_total")
	b := r.Counter("jobs_total")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	ext := &Counter{}
	ext.Add(5)
	r.RegisterCounter("ext_total", ext)
	if got := r.Counter("ext_total"); got != ext {
		t.Fatal("get-or-create did not return the registered instance")
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{-3, 0}, {0, 0}, {0.5, 0}, {math.NaN(), 0},
		{1, 1}, {1.9, 1},
		{2, 2}, {3.99, 2},
		{4, 3},
		{1024, 11},
		{1 << 61, 62},
		{1 << 62, NumBuckets - 1},
		{math.Inf(1), NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	if BucketUpper(0) != 1 || BucketUpper(3) != 8 || !math.IsInf(BucketUpper(NumBuckets-1), 1) {
		t.Fatal("BucketUpper boundaries wrong")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Record(3) // bucket 2, upper bound 4
	}
	h.Record(1000) // bucket 10, upper bound 1024
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 4 {
		t.Fatalf("p50 = %g, want 4", got)
	}
	if got := s.Quantile(1.0); got != 1024 {
		t.Fatalf("p100 = %g, want 1024", got)
	}
	if got := s.Mean(); math.Abs(got-(99*3+1000)/100.0) > 1e-9 {
		t.Fatalf("mean = %g", got)
	}
}

// TestHistogramHammer drives N concurrent writers against snapshot
// readers under the race detector and checks that no observation is
// lost or double-counted once the writers join.
func TestHistogramHammer(t *testing.T) {
	const (
		writers   = 8
		perWriter = 20000
	)
	var h Histogram
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				var bucketSum uint64
				for _, c := range s.Counts {
					bucketSum += c
				}
				// Snapshot reads count before buckets and writers
				// bump the bucket before the count, so the bucket
				// total can never fall below the snapshot count.
				if bucketSum < s.Count {
					t.Errorf("snapshot lost observations: buckets=%d count=%d", bucketSum, s.Count)
					return
				}
			}
		}()
	}
	var writersWG sync.WaitGroup
	wantSum := float64(0)
	var sumMu sync.Mutex
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(seed uint64) {
			defer writersWG.Done()
			local := float64(0)
			x := seed*2654435761 + 1
			for i := 0; i < perWriter; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				v := float64(x % (1 << 20))
				h.Record(v)
				local += v
			}
			sumMu.Lock()
			wantSum += local
			sumMu.Unlock()
		}(uint64(w))
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", s.Count, writers*perWriter)
	}
	var bucketSum uint64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket total = %d, count = %d", bucketSum, s.Count)
	}
	if math.Abs(s.Sum-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
}

// TestPrometheusGolden pins the exposition byte-for-byte: series order,
// TYPE lines, label escaping, histogram bucket elision, and the absence
// of trailing-newline drift across repeated renders.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_fed_total").Add(12)
	r.Gauge("queue_depth").Set(3)
	r.Gauge(Label("stream_queued", "tenant", "2")).Set(5)
	r.Gauge(Label("stream_queued", "tenant", "10")).Set(1)
	r.GaugeFunc("busy_fraction", func() float64 { return 0.25 })
	r.Gauge(Label("weird", "path", `a\b"c`+"\n")).Set(1)
	h := r.Histogram("decide_ns")
	h.Record(0.5) // bucket 0
	h.Record(3)   // bucket 2
	h.Record(3)
	h.Record(300) // bucket 9

	const want = `# TYPE busy_fraction gauge
busy_fraction 0.25
# TYPE decide_ns histogram
decide_ns_bucket{le="1"} 1
decide_ns_bucket{le="4"} 3
decide_ns_bucket{le="512"} 4
decide_ns_bucket{le="+Inf"} 4
decide_ns_sum 306.5
decide_ns_count 4
# TYPE jobs_fed_total counter
jobs_fed_total 12
# TYPE queue_depth gauge
queue_depth 3
# TYPE stream_queued gauge
stream_queued{tenant="10"} 1
stream_queued{tenant="2"} 5
# TYPE weird gauge
weird{path="a\\b\"c\n"} 1
`
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// Render again: identical bytes, exactly one trailing newline.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != buf.String() {
		t.Fatal("second render drifted from the first")
	}
	if !strings.HasSuffix(buf.String(), "\n") || strings.HasSuffix(buf.String(), "\n\n") {
		t.Fatal("exposition must end with exactly one newline")
	}
}

// TestParseRoundTrip feeds a rendered exposition back through the
// scrape parser and checks values and quantile reconstruction.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("fed_total").Add(100)
	r.Gauge("busy").Set(0.75)
	h := r.Histogram("lat_ns")
	for i := 0; i < 99; i++ {
		h.Record(100) // bucket le=128
	}
	h.Record(1 << 20) // lands in [2^20, 2^21): le=2^21

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Value("fed_total") != 100 {
		t.Fatalf("fed_total = %g", sc.Value("fed_total"))
	}
	if sc.Value("busy") != 0.75 {
		t.Fatalf("busy = %g", sc.Value("busy"))
	}
	if !sc.Has("lat_ns_count") || sc.Value("lat_ns_count") != 100 {
		t.Fatalf("lat_ns_count = %g", sc.Value("lat_ns_count"))
	}
	if got := sc.Quantile("lat_ns", 0.5); got != 128 {
		t.Fatalf("scraped p50 = %g, want 128", got)
	}
	if got := sc.Quantile("lat_ns", 1.0); got != 1<<21 {
		t.Fatalf("scraped p100 = %g, want 2^21", got)
	}
	if got := sc.Quantile("absent", 0.5); got != 0 {
		t.Fatalf("absent histogram quantile = %g, want 0", got)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	if c.Value() != int64(b.N) {
		b.Fatal("count mismatch")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(float64(i & 0xffff))
	}
	if h.Snapshot().Count != uint64(b.N) {
		b.Fatal("count mismatch")
	}
}
