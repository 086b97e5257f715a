package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRegistryPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flexsp_requests_total", "Total requests.")
	g := r.Gauge("flexsp_queue_depth", "In-flight requests.")
	r.GaugeFunc("flexsp_uptime_seconds", "Uptime.", func() float64 { return 1.5 })
	h := r.Histogram("flexsp_request_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	c.Add(3)
	g.Set(2)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE flexsp_requests_total counter",
		"flexsp_requests_total 3",
		"# TYPE flexsp_queue_depth gauge",
		"flexsp_queue_depth 2",
		"flexsp_uptime_seconds 1.5",
		`flexsp_request_latency_seconds_bucket{le="0.01"} 1`,
		`flexsp_request_latency_seconds_bucket{le="0.1"} 2`,
		`flexsp_request_latency_seconds_bucket{le="1"} 2`,
		`flexsp_request_latency_seconds_bucket{le="+Inf"} 3`,
		"flexsp_request_latency_seconds_sum 5.055",
		"flexsp_request_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// The output must round-trip through our own parser.
	fams, err := ParsePrometheus(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v", err)
	}
	byName := map[string]PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["flexsp_requests_total"]; f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 3 {
		t.Fatalf("requests family = %+v", f)
	}
	hf := byName["flexsp_request_latency_seconds"]
	if hf.Type != "histogram" || len(hf.Samples) != 6 {
		t.Fatalf("histogram family = %+v", hf)
	}
	// Two scrapes must be byte-identical when nothing changed.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatalf("second WritePrometheus: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("scrapes differ")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edges", "e", []float64{1, 2})
	h.Observe(1) // on the boundary counts into le="1"
	h.Observe(2.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`edges_bucket{le="1"} 1`,
		`edges_bucket{le="2"} 1`,
		`edges_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestHistogramQuantile pins the estimate to Prometheus's histogram_quantile:
// linear interpolation inside the bucket holding the rank, the highest finite
// bound for a rank in +Inf, and 0 on an empty histogram.
func TestHistogramQuantile(t *testing.T) {
	h := NewRegistry().Histogram("q", "q", []float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// Buckets (0,1]: 2, (1,2]: 4, (2,4]: 2, +Inf: 2; ten observations.
	for _, v := range []float64{0.5, 1, 1.5, 1.5, 2, 2, 3, 4, 9, 100} {
		h.Observe(v)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.1, 0.5},  // rank 1 of the 2 in (0,1]
		{0.2, 1},    // rank 2: the first bucket's upper bound
		{0.5, 1.75}, // rank 5: 3 of the 4 in (1,2]
		{0.7, 3},    // rank 7: 1 of the 2 in (2,4]
		{0.8, 4},    // rank 8: the last finite bucket's upper bound
		{0.99, 4},   // rank 9.9 falls in +Inf: the highest finite bound
		{1, 4},
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "first")
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate registration did not panic")
		}
	}()
	r.Counter("dup", "second")
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "c")
	h := r.Histogram("h", "h", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 || math.Abs(h.Sum()-4000) > 1e-9 {
		t.Fatalf("histogram count=%d sum=%v, want 8000/4000", h.Count(), h.Sum())
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value_metric\n",
		"bad-name 1\n",
		`unterminated{le="1 2` + "\n",
		"trailing 1 1234567890\n", // timestamps unsupported in our subset
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePrometheus(%q) accepted malformed input", bad)
		}
	}
}

func TestParsePrometheusLabelsAndSpecials(t *testing.T) {
	in := "m{a=\"x\\\"y\",b=\"z\"} +Inf\n"
	fams, err := ParsePrometheus(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v", err)
	}
	if len(fams) != 1 || len(fams[0].Samples) != 1 {
		t.Fatalf("families = %+v", fams)
	}
	s := fams[0].Samples[0]
	if s.Labels["a"] != `x"y` || s.Labels["b"] != "z" || !math.IsInf(s.Value, 1) {
		t.Fatalf("sample = %+v", s)
	}
}
