package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the exposition to stay monotonic;
// this is not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets and tracks their sum,
// exposed in the Prometheus cumulative-bucket convention.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS loop
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of every observation so far
// the way Prometheus's histogram_quantile does: it finds the bucket that
// holds rank q·count and interpolates linearly between that bucket's lower
// and upper bound (the first bucket starts at 0). A rank in the +Inf bucket
// returns the highest finite bound, and an empty histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var below int64
	for i, upper := range h.bounds {
		if n := counts[i]; n > 0 && float64(below+n) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			return lower + (upper-lower)*(rank-float64(below))/float64(n)
		}
		below += counts[i]
	}
	return h.bounds[len(h.bounds)-1]
}

// DefBuckets are latency buckets in seconds, spanning sub-millisecond cache
// hits to multi-second cold MILP solves.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// metricKind tags a registry entry for the TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered family member.
type metric struct {
	name string
	help string
	kind metricKind

	counter   *Counter
	gauge     *Gauge
	gaugeFn   func() float64
	counterFn func() float64
	hist      *Histogram
}

// Registry holds metrics and renders them in Prometheus text exposition
// format 0.0.4. Registration is not on any hot path and takes a lock;
// updates on the returned Counter/Gauge/Histogram are lock-free.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register adds m, panicking on duplicate names — metric names are
// program constants, so a duplicate is a programming error.
func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// GaugeFunc registers a gauge computed by fn at scrape time — for values
// already tracked elsewhere (queue depth, cache entries, uptime).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGauge, gaugeFn: fn})
}

// CounterFunc registers a counter computed by fn at scrape time — for
// monotonic totals already tracked elsewhere (solver and cache stats).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindCounter, counterFn: fn})
}

// Histogram registers and returns a histogram with the given upper bounds
// (ascending; +Inf is implicit). Pass DefBuckets for latencies in seconds.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// WritePrometheus renders every registered metric in text exposition format,
// sorted by name for deterministic scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind.String())
		switch m.kind {
		case kindCounter:
			v := float64(0)
			if m.counter != nil {
				v = float64(m.counter.Value())
			} else {
				v = m.counterFn()
			}
			fmt.Fprintf(&b, "%s %s\n", m.name, formatValue(v))
		case kindGauge:
			v := float64(0)
			if m.gauge != nil {
				v = float64(m.gauge.Value())
			} else {
				v = m.gaugeFn()
			}
			fmt.Fprintf(&b, "%s %s\n", m.name, formatValue(v))
		case kindHistogram:
			h := m.hist
			cum := int64(0)
			for i, ub := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, formatValue(ub), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, formatValue(h.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// formatValue renders a float the way Prometheus clients do: integers
// without a decimal point, everything else in shortest-form scientific or
// fixed notation.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
