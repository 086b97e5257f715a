package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
)

func mixedModel(t *testing.T, a100, h100 int) costmodel.HeteroCoeffs {
	t.Helper()
	m, err := cluster.MixedCluster(
		cluster.ClassCount{Class: cluster.A100_40G, Devices: a100},
		cluster.ClassCount{Class: cluster.H100, Devices: h100})
	if err != nil {
		t.Fatal(err)
	}
	return costmodel.ProfileMixed(costmodel.GPT7B, m)
}

// longTail builds a deterministic long-tail micro-batch: mostly 1–4K
// sequences with an occasional tail up to maxLen.
func longTail(seed int64, n, maxLen int) []int {
	rng := rand.New(rand.NewSource(seed))
	lens := make([]int, n)
	for i := range lens {
		if rng.Intn(8) == 0 {
			lens[i] = 8<<10 + rng.Intn(maxLen-8<<10)
		} else {
			lens[i] = 1<<10 + rng.Intn(3<<10)
		}
	}
	return lens
}

// On single-class fleets the scalar and heterogeneous executors must agree
// exactly — every group result, jitter draw and ZeRO charge — for unplaced
// plans (hand-built, and the scalar planner's) and placed plans (the
// placement-aware planner's) alike.
func TestHeterogeneousExecutorSingleClassEquivalence(t *testing.T) {
	for _, n := range []int{64, 56, 16} {
		m, err := cluster.MixedCluster(cluster.ClassCount{Class: cluster.A100_40G, Devices: n})
		if err != nil {
			t.Fatal(err)
		}
		hc := costmodel.ProfileMixed(costmodel.GPT7B, m)
		c := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(n))
		handBuilt := []planner.MicroPlan{
			{Groups: []planner.Group{
				{Degree: 8, Lens: []int{20 << 10, 8 << 10}},
				{Degree: 4, Lens: []int{6 << 10, 2 << 10}},
				{Degree: 4, Lens: []int{4 << 10, 1 << 10}},
			}},
			{Groups: []planner.Group{
				{Degree: 16, Lens: []int{40 << 10, 10 << 10}},
			}},
		}
		maxLen := 8<<10 + n<<9
		var unplaced, placed []planner.MicroPlan
		for seed := int64(1); seed <= 3; seed++ {
			lens := longTail(seed*int64(n), n/2, maxLen)
			up, err := planner.New(c).Plan(lens)
			if err != nil {
				t.Fatal(err)
			}
			pp, err := planner.NewHetero(hc).Plan(lens)
			if err != nil {
				t.Fatal(err)
			}
			unplaced, placed = append(unplaced, up), append(placed, pp)
		}
		for _, plans := range [][]planner.MicroPlan{handBuilt, unplaced, placed} {
			for _, opts := range []Options{
				{},
				{IncludeZeRO: true},
				{Noise: 0.1, Seed: 7},
				{Noise: 0.1, Seed: 7, IncludeZeRO: true},
			} {
				scalar, serr := ExecuteIteration(c, plans, opts)
				hetero, herr := ExecuteIterationHetero(hc, plans, opts)
				if serr != nil || herr != nil {
					t.Fatalf("%d devices %+v: errors %v (scalar) vs %v (hetero)", n, opts, serr, herr)
				}
				if !reflect.DeepEqual(scalar, hetero) {
					t.Fatalf("%d devices %+v, placed=%v: executors diverge:\nscalar %+v\nhetero %+v",
						n, opts, plans[0].Groups[0].Placed(), scalar, hetero)
				}
			}
		}
	}
}

// Placement decides feasibility: a token load that overflows the 40-GB half
// fits on the H100 half.
func TestHeterogeneousExecutorPlacementDecidesOOM(t *testing.T) {
	hc := mixedModel(t, 8, 8)
	heavy := []int{50 << 10}
	onA100 := []planner.MicroPlan{{Groups: []planner.Group{
		{Degree: 8, Lens: heavy, Range: cluster.DeviceRange{Start: 0, Size: 8}},
	}}}
	if _, err := ExecuteIterationHetero(hc, onA100, Options{}); !errors.Is(err, ErrOOM) {
		t.Fatalf("expected OOM on the A100-40G half, got %v", err)
	}
	onH100 := []planner.MicroPlan{{Groups: []planner.Group{
		{Degree: 8, Lens: heavy, Range: cluster.DeviceRange{Start: 8, Size: 8}},
	}}}
	res, err := ExecuteIterationHetero(hc, onH100, Options{})
	if err != nil {
		t.Fatalf("H100 placement should fit: %v", err)
	}
	if res.PeakMemFrac > 1 {
		t.Fatalf("peak mem %v > 1 on H100 half", res.PeakMemFrac)
	}
}

// The same load runs faster on the H100 half than on the A100 half.
func TestHeterogeneousExecutorClassSpeed(t *testing.T) {
	hc := mixedModel(t, 8, 8)
	lens := []int{16 << 10, 8 << 10}
	at := func(start int) float64 {
		plans := []planner.MicroPlan{{Groups: []planner.Group{
			{Degree: 8, Lens: lens, Range: cluster.DeviceRange{Start: start, Size: 8}},
		}}}
		res, err := ExecuteIterationHetero(hc, plans, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	if a, h := at(0), at(8); h >= a {
		t.Fatalf("H100 half %.4f not faster than A100 half %.4f", h, a)
	}
}

func TestHeterogeneousExecutorRejectsMixedPlacement(t *testing.T) {
	hc := mixedModel(t, 8, 8)
	plans := []planner.MicroPlan{{Groups: []planner.Group{
		{Degree: 8, Lens: []int{8 << 10}, Range: cluster.DeviceRange{Start: 0, Size: 8}},
		{Degree: 8, Lens: []int{8 << 10}}, // unplaced
	}}}
	if _, err := ExecuteIterationHetero(hc, plans, Options{}); err == nil {
		t.Fatal("plan mixing placed and unplaced groups accepted")
	}
	overlap := []planner.MicroPlan{{Groups: []planner.Group{
		{Degree: 8, Lens: []int{8 << 10}, Range: cluster.DeviceRange{Start: 0, Size: 8}},
		{Degree: 8, Lens: []int{8 << 10}, Range: cluster.DeviceRange{Start: 0, Size: 8}},
	}}}
	if _, err := ExecuteIterationHetero(hc, overlap, Options{}); err == nil {
		t.Fatal("overlapping placement accepted")
	}
}
