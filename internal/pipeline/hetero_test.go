package pipeline

import (
	"math/rand"
	"reflect"
	"testing"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
)

func mixedFleet(t *testing.T, a100, h100 int) costmodel.HeteroCoeffs {
	t.Helper()
	m, err := cluster.MixedCluster(
		cluster.ClassCount{Class: cluster.A100_40G, Devices: a100},
		cluster.ClassCount{Class: cluster.H100, Devices: h100})
	if err != nil {
		t.Fatal(err)
	}
	return costmodel.ProfileMixed(costmodel.GPT7B, m)
}

func TestHeterogeneousApportionLayers(t *testing.T) {
	for _, tc := range []struct {
		total   int
		weights []float64
		want    []int
	}{
		{32, []float64{1, 1}, []int{16, 16}},
		{32, []float64{140, 380}, []int{9, 23}},
		{4, []float64{1, 1000, 1000, 1000}, []int{1, 1, 1, 1}},
	} {
		got := apportionLayers(tc.total, tc.weights)
		sum := 0
		for i, l := range got {
			sum += l
			if l < 1 {
				t.Errorf("apportionLayers(%d, %v)[%d] = %d < 1", tc.total, tc.weights, i, l)
			}
		}
		if sum != tc.total {
			t.Errorf("apportionLayers(%d, %v) sums to %d", tc.total, tc.weights, sum)
		}
		if tc.want != nil {
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Errorf("apportionLayers(%d, %v) = %v, want %v", tc.total, tc.weights, got, tc.want)
					break
				}
			}
		}
	}
}

// A two-stage pipeline over an A100+H100 fleet must give the H100 stage more
// layers, and the FLOPS-weighted split must balance per-stage compute better
// than an even split would.
func TestHeterogeneousStageSplit(t *testing.T) {
	hc := mixedFleet(t, 32, 32)
	p, err := NewHetero(hc, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	a100, h100 := p.Stages[0], p.Stages[1]
	if h100.Layers <= a100.Layers {
		t.Fatalf("H100 stage has %d layers, A100 stage %d — want the fast stage heavier",
			h100.Layers, a100.Layers)
	}
	// Per-stage compute balance: layers/FLOPS must be tighter than the even
	// split's worst stage.
	worst := func(l0, l1 int) float64 {
		t0 := float64(l0) / a100.Coeffs.Topo.EffFLOPS
		t1 := float64(l1) / h100.Coeffs.Topo.EffFLOPS
		if t0 > t1 {
			return t0
		}
		return t1
	}
	total := hc.Model.Layers
	if w, e := worst(a100.Layers, h100.Layers), worst(total/2, total-total/2); w >= e {
		t.Errorf("weighted split worst stage %.3g not better than even split %.3g", w, e)
	}
}

// Across fleet sizes, PP degrees and micro-batch counts, NewHetero on a
// single-class fleet must build exactly the pipeline New builds from the
// fleet's scalar profile.
func TestHeterogeneousPipelineSingleClassEquivalence(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		m, err := cluster.MixedCluster(cluster.ClassCount{Class: cluster.A100_40G, Devices: n})
		if err != nil {
			t.Fatal(err)
		}
		hc := costmodel.ProfileMixed(costmodel.GPT7B, m)
		base := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(n))
		for _, pp := range []int{1, 2, 4, 8} {
			for _, mb := range []int{1, 3, 8} {
				legacy, lerr := New(base, pp, mb)
				hetero, herr := NewHetero(hc, pp, mb)
				if lerr != nil || herr != nil {
					t.Fatalf("%d devices PP=%d M=%d: errors %v (New) vs %v (NewHetero)", n, pp, mb, lerr, herr)
				}
				if !reflect.DeepEqual(legacy, hetero) {
					t.Errorf("%d devices PP=%d M=%d: pipelines differ:\n%+v\nvs\n%+v", n, pp, mb, legacy, hetero)
				}
			}
		}
	}
}

// The joint planner on a mixed fleet solves and executes end to end, and the
// weighted pipeline beats an artificially even-split two-stage pipeline on
// the same batch.
func TestHeterogeneousJointPlanner(t *testing.T) {
	hc := mixedFleet(t, 8, 8)
	jp := NewHeteroPlanner(hc)
	jp.Degrees = []int{1, 2}
	rng := rand.New(rand.NewSource(9))
	batch := make([]int, 32)
	for i := range batch {
		if rng.Intn(8) == 0 {
			batch[i] = 8<<10 + rng.Intn(8<<10)
		} else {
			batch[i] = 1<<10 + rng.Intn(3<<10)
		}
	}
	res, err := jp.Solve(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatalf("joint plan time %v", res.Time)
	}
	sched, err := res.Pipe.Execute(res.Plans, Options{IncludeZeRO: true})
	if err != nil {
		t.Fatal(err)
	}
	if sched.OOM {
		t.Fatal("joint plan OOMs")
	}
}
