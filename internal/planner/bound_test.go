package planner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"flexsp/internal/blaster"
	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/obs"
	"flexsp/internal/workload"
)

// boundPricings are the planners the lower bound is checked under on n
// devices: scalar, ring CP, a degree cap, a placed single-class fleet, one
// with node 1 derated 1.5× (and, from 16 devices on, its last node down),
// and an A100+H100 fleet under both communication styles.
func boundPricings(t *testing.T, n int) map[string]*Planner {
	t.Helper()
	mixedOf := func(parts ...cluster.ClassCount) cluster.MixedTopology {
		m, err := cluster.MixedCluster(parts...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	single := mixedOf(cluster.ClassCount{Class: cluster.A100_40G, Devices: n})
	e, err := cluster.NewElastic(single)
	if err != nil {
		t.Fatal(err)
	}
	events := []cluster.Event{{Kind: cluster.EventStraggle, Node: 1, Factor: 1.5}}
	if n > 16 {
		events = append(events, cluster.Event{Kind: cluster.EventNodeDown, Node: n/8 - 1})
	}
	if _, err := e.Apply(events...); err != nil {
		t.Fatal(err)
	}
	mixed := mixedOf(cluster.ClassCount{Class: cluster.A100_40G, Devices: n / 2},
		cluster.ClassCount{Class: cluster.H100, Devices: n / 2})
	hetero := func(mx cluster.MixedTopology, style costmodel.CommStyle) *Planner {
		return NewHetero(costmodel.ProfileMixed(costmodel.GPT7B, mx).WithStyle(style))
	}
	return map[string]*Planner{
		"scalar":       New(coeffs(n)),
		"ring":         New(coeffs(n).WithStyle(costmodel.StyleRingCP)),
		"degree-cap":   New(coeffs(n).WithSPDegreeCap(n / 4)),
		"single-class": hetero(single, costmodel.StyleUlysses),
		"straggled":    hetero(e.Snapshot().Mixed, costmodel.StyleUlysses),
		"mixed":        hetero(mixed, costmodel.StyleUlysses),
		"mixed-ring":   hetero(mixed, costmodel.StyleRingCP),
	}
}

// windowMicroBatches blasts the batch at every micro-batch count of Alg. 1's
// default window on the planner's fleet, dropping repeats.
func windowMicroBatches(pl *Planner, batch []int) [][]int {
	mmin := blaster.MinMicroBatches(batch, pl.TokenCapacity())
	seen := map[string]bool{}
	var out [][]int
	for m := mmin; m < mmin+blaster.DefaultTrials && m <= len(batch); m++ {
		micro, err := blaster.Blast(batch, m)
		if err != nil {
			continue
		}
		for _, lens := range micro {
			if key := fmt.Sprint(lens); !seen[key] {
				seen[key] = true
				out = append(out, lens)
			}
		}
	}
	return out
}

// TestLowerBoundBelowEnumAndGreedy checks LowerBound on the micro-batches of
// whole trial windows — one batch per corpus — under every pricing, and on
// 128 devices (the configuration search): positive, never above the enum or
// greedy plan's time, and tight enough to prune — its median ratio to the
// enum time is at least 0.6.
func TestLowerBoundBelowEnumAndGreedy(t *testing.T) {
	corpora := []workload.Dataset{workload.CommonCrawl(), workload.GitHub(), workload.Wikipedia()}
	pricings := boundPricings(t, 64)
	pricings["128"] = New(coeffs(128))
	names := make([]string, 0, len(pricings))
	for name := range pricings {
		names = append(names, name)
	}
	sort.Strings(names)
	var batches [][]int
	for i, d := range corpora {
		batches = append(batches, d.Batch(rand.New(rand.NewSource(int64(40+i))), 128, 192<<10))
	}
	for _, name := range names {
		pl := pricings[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			lb := pl.LowerBound()
			greedy := *pl
			greedy.Strategy = StrategyGreedy
			var micro [][]int
			for _, batch := range batches {
				micro = append(micro, windowMicroBatches(pl, batch)...)
			}
			var ratios []float64
			for _, lens := range micro {
				bound := lb.Of(lens)
				if !(bound > 0) {
					t.Fatalf("bound %v for a %d-sequence micro-batch", bound, len(lens))
				}
				if p, err := pl.Plan(lens); err == nil {
					if bound > p.Time {
						t.Errorf("bound %v above the enum plan's %v", bound, p.Time)
					}
					ratios = append(ratios, bound/p.Time)
				}
				if p, err := greedy.Plan(lens); err == nil && bound > p.Time {
					t.Errorf("bound %v above the greedy plan's %v", bound, p.Time)
				}
			}
			if len(ratios) == 0 {
				t.Fatal("no micro-batch of the window was planned")
			}
			sort.Float64s(ratios)
			med := ratios[len(ratios)/2]
			t.Logf("median bound/enum ratio %.3f over %d micro-batches", med, len(ratios))
			if med < 0.6 {
				t.Errorf("median bound/enum ratio %.3f over %d micro-batches, want ≥ 0.6", med, len(ratios))
			}
		})
	}
}

// TestLowerBoundBelowMILP checks the bound against the MILPs, which search
// beyond the enum's configurations, on tiny instances of at most 8
// sequences and 16 devices. A time-limited MILP returns its best plan so
// far, which the bound must stay below all the same.
func TestLowerBoundBelowMILP(t *testing.T) {
	for name, pl := range boundPricings(t, 16) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pl.Strategy = StrategyMILP
			pl.MILPTimeLimit = 200 * time.Millisecond
			lb := pl.LowerBound()
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 3; i++ {
				lens := workload.CommonCrawl().Batch(rng, 2+rng.Intn(7), 96<<10)
				p, err := pl.Plan(lens)
				if err != nil {
					continue
				}
				if bound := lb.Of(lens); !(bound > 0) || bound > p.Time {
					t.Errorf("bound %v, MILP plan %v for %v", bound, p.Time, lens)
				}
			}
		})
	}
}

// TestTokenCapacityBoundsGroups is the premise of the infeasibility proof:
// however a fleet is cut into disjoint aligned groups, their token
// capacities sum to at most TokenCapacity — scalar, mixed, derated and
// calibrated (single-class ranges refitted, mixed spans analytic, as
// calib.File.Calibrator does).
func TestTokenCapacityBoundsGroups(t *testing.T) {
	pricings := boundPricings(t, 64)
	cal := pricings["mixed"].Hetero.WithStyle(costmodel.StyleUlysses)
	cal.Calibrate = func(c costmodel.Coeffs, classes []cluster.DeviceClass) costmodel.Coeffs {
		if len(classes) == 1 {
			c.MTokenBytes *= 1.1
			c.Alpha1 *= 0.9
		}
		return c
	}
	pricings["calibrated"] = NewHetero(cal)
	rng := rand.New(rand.NewSource(3))
	for name, pl := range pricings {
		pr := pl.Pricing()
		n := pr.Fleet.Topo.NumDevices()
		span := 1
		for span < n {
			span *= 2
		}
		for trial := 0; trial < 200; trial++ {
			total := 0
			// Cut [0, span) recursively: each aligned block becomes a group,
			// is split in two, or stays idle.
			var cut func(r cluster.DeviceRange)
			cut = func(r cluster.DeviceRange) {
				if r.Start >= n {
					return
				}
				switch k := rng.Intn(3); {
				case r.End() <= n && r.Size <= pr.Fleet.MaxDegree() && (k == 0 || r.Size == 1):
					total += r.Size * pr.Group(r).MaxTokensPerDevice()
				case k == 1 || r.End() > n || r.Size > pr.Fleet.MaxDegree():
					cut(cluster.DeviceRange{Start: r.Start, Size: r.Size / 2})
					cut(cluster.DeviceRange{Start: r.Start + r.Size/2, Size: r.Size / 2})
				}
			}
			cut(cluster.DeviceRange{Start: 0, Size: span})
			if capacity := pr.TokenCapacity(); total > capacity {
				t.Fatalf("%s: groups hold %d tokens, TokenCapacity %d", name, total, capacity)
			}
		}
	}
}

// TestInfeasibleBeforeEnumerating plans a micro-batch that fits the fleet by
// its actual tokens but not at bucket-representative lengths: enum and both
// MILPs must return ErrInfeasible without searching, so the planner.plan
// span carries no candidate count.
func TestInfeasibleBeforeEnumerating(t *testing.T) {
	per := coeffs(8).MaxTokensPerDevice()
	lens := []int{per}
	for i := 0; i < 10; i++ {
		lens = append(lens, per/2)
	}
	single, err := cluster.MixedCluster(cluster.ClassCount{Class: cluster.A100_40G, Devices: 8})
	if err != nil {
		t.Fatal(err)
	}
	planners := map[string]*Planner{
		"enum":        New(coeffs(8)),
		"milp":        New(coeffs(8)),
		"placed-milp": NewHetero(costmodel.ProfileMixed(costmodel.GPT7B, single)),
	}
	planners["milp"].Strategy = StrategyMILP
	planners["placed-milp"].Strategy = StrategyMILP
	for name, pl := range planners {
		pl.Q = 1 // one bucket: every sequence is costed at the longest
		actual, capacity := 0, pl.TokenCapacity()
		for _, l := range lens {
			actual += l
		}
		if actual > capacity || len(lens)*per <= capacity {
			t.Fatalf("%s: actual %d, representatives %d, capacity %d: not the case under test", name, actual, len(lens)*per, capacity)
		}
		ctx, tr := obs.NewTrace(context.Background(), "test")
		_, err := pl.PlanContext(ctx, lens)
		tr.End()
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: err %v, want ErrInfeasible", name, err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
			t.Fatal(err)
		}
		for _, ev := range trace.TraceEvents {
			if _, ok := ev.Args["candidates"]; ok && ev.Name == "planner.plan" {
				t.Errorf("%s: enumerated %v candidates before failing", name, ev.Args["candidates"])
			}
		}
	}
}
