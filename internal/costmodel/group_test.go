package costmodel

import (
	"testing"

	"flexsp/internal/cluster"
)

func mixed(t *testing.T, parts ...cluster.ClassCount) cluster.MixedTopology {
	t.Helper()
	m, err := cluster.MixedCluster(parts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Acceptance: every range of an all-A100 MixedCluster prices like the scalar
// Coeffs — existing numbers must not move for single-class topologies.
func TestHeterogeneousSingleClassEquivalence(t *testing.T) {
	m := mixed(t, cluster.ClassCount{Class: cluster.A100_40G, Devices: 64})
	legacy := Profile(GPT7B, cluster.A100Cluster(64))
	hc := ProfileMixed(GPT7B, m)

	if u, ok := hc.Uniform(); !ok || u != legacy {
		t.Fatalf("Uniform() = %+v, want legacy Profile %+v", u, legacy)
	}
	if b := hc.Bottleneck(); b != legacy {
		t.Fatalf("Bottleneck() = %+v, want legacy Profile %+v", b, legacy)
	}

	lens := []int{192 << 10, 32 << 10, 8 << 10, 8 << 10, 1 << 10, 500}
	for _, tc := range []struct {
		r cluster.DeviceRange
		d int
	}{
		{cluster.DeviceRange{Start: 0, Size: 64}, 64},
		{cluster.DeviceRange{Start: 32, Size: 32}, 32},
		{cluster.DeviceRange{Start: 8, Size: 8}, 8},
		{cluster.DeviceRange{Start: 4, Size: 4}, 4},
		{cluster.DeviceRange{Start: 62, Size: 2}, 2},
	} {
		g := hc.Group(tc.r)
		got, want := g.Coeffs, legacy
		if a, b := got.ComputeTime(lens, tc.d), want.ComputeTime(lens, tc.d); a != b {
			t.Errorf("range %v ComputeTime = %g, legacy %g", tc.r, a, b)
		}
		if a, b := got.CommTime(lens, tc.d), want.CommTime(lens, tc.d); a != b {
			t.Errorf("range %v CommTime = %g, legacy %g", tc.r, a, b)
		}
		if a, b := got.GroupTime(lens, tc.d), want.GroupTime(lens, tc.d); a != b {
			t.Errorf("range %v GroupTime = %g, legacy %g", tc.r, a, b)
		}
		if a, b := got.MemoryBytes(lens, tc.d), want.MemoryBytes(lens, tc.d); a != b {
			t.Errorf("range %v MemoryBytes = %g, legacy %g", tc.r, a, b)
		}
		if a, b := got.MaxTokensPerDevice(), want.MaxTokensPerDevice(); a != b {
			t.Errorf("range %v MaxTokensPerDevice = %d, legacy %d", tc.r, a, b)
		}
	}
	if got, want := hc.ClusterTokenCapacity(), legacy.ClusterTokenCapacity(); got != want {
		t.Errorf("ClusterTokenCapacity = %d, legacy %d", got, want)
	}
	for _, s := range []int{1 << 10, 64 << 10, 192 << 10, 384 << 10} {
		if got, want := hc.MinDegreeFor(s), legacy.MinDegreeFor(s); got != want {
			t.Errorf("MinDegreeFor(%d) = %d, legacy %d", s, got, want)
		}
	}

	// Calibrated: a fitted entry whose activation bytes per token are twice
	// the analytic value must halve every capacity, whichever constructor
	// built the single-class model.
	calibrate := func(c Coeffs, _ []cluster.DeviceClass) Coeffs {
		c.MTokenBytes *= 2
		c.Calibration = "test"
		return c
	}
	hc.Calibrate = calibrate
	calLegacy := calibrate(legacy, nil)
	if u, ok := hc.Uniform(); !ok || u != calLegacy {
		t.Fatalf("calibrated Uniform() = %+v, want %+v", u, calLegacy)
	}
	perDevice := hc.Group(m.FullRange()).MaxTokensPerDevice()
	if perDevice != calLegacy.MaxTokensPerDevice() {
		t.Errorf("calibrated per-device capacity %d, legacy %d", perDevice, calLegacy.MaxTokensPerDevice())
	}
	if got, want := hc.ClusterTokenCapacity(), calLegacy.ClusterTokenCapacity(); got != want || got != 64*perDevice {
		t.Errorf("calibrated ClusterTokenCapacity = %d, legacy %d, 64 × group capacity %d", got, want, 64*perDevice)
	}
	for _, s := range []int{1 << 10, 64 << 10, 192 << 10} {
		if got, want := hc.MinDegreeFor(s), calLegacy.MinDegreeFor(s); got != want {
			t.Errorf("calibrated MinDegreeFor(%d) = %d, legacy %d", s, got, want)
		}
	}
}

// A group on the H100 half must compute faster than the same group on the
// A100 half; a straddling group is paced by the slower class and capped by
// the smaller memory.
func TestHeterogeneousGroupBottlenecks(t *testing.T) {
	m := mixed(t,
		cluster.ClassCount{Class: cluster.A100_40G, Devices: 32},
		cluster.ClassCount{Class: cluster.H100, Devices: 32})
	hc := ProfileMixed(GPT7B, m)
	lens := []int{32 << 10, 16 << 10}

	a100 := hc.Group(cluster.DeviceRange{Start: 0, Size: 32})
	h100 := hc.Group(cluster.DeviceRange{Start: 32, Size: 32})
	straddle := hc.Group(cluster.DeviceRange{Start: 16, Size: 32})

	if ta, th := a100.ComputeTime(lens, 32), h100.ComputeTime(lens, 32); th >= ta {
		t.Errorf("H100 compute %.4f not faster than A100 %.4f", th, ta)
	}
	if ts, ta := straddle.ComputeTime(lens, 32), a100.ComputeTime(lens, 32); ts != ta {
		t.Errorf("straddling group compute %.4f, want slowest-class pace %.4f", ts, ta)
	}
	if ch, ca := h100.MaxTokensPerDevice(), a100.MaxTokensPerDevice(); ch <= ca {
		t.Errorf("H100 token capacity %d not above A100-40G %d", ch, ca)
	}
	if cs, ca := straddle.MaxTokensPerDevice(), a100.MaxTokensPerDevice(); cs != ca {
		t.Errorf("straddling capacity %d, want min-memory %d", cs, ca)
	}
	// Model states shard over the whole fleet: identical on every placement.
	if a100.MStateBytes != h100.MStateBytes || a100.MStateBytes != hc.MStateBytes {
		t.Errorf("MStateBytes differ across placements: %g vs %g", a100.MStateBytes, h100.MStateBytes)
	}
}

func TestHeterogeneousMinDegreeUsesBestRegion(t *testing.T) {
	m := mixed(t,
		cluster.ClassCount{Class: cluster.A100_40G, Devices: 32},
		cluster.ClassCount{Class: cluster.H100, Devices: 32})
	hc := ProfileMixed(GPT7B, m)
	perA100 := hc.Group(cluster.DeviceRange{Start: 0, Size: 8}).MaxTokensPerDevice()
	perH100 := hc.Group(cluster.DeviceRange{Start: 32, Size: 8}).MaxTokensPerDevice()
	if perH100 <= perA100 {
		t.Fatalf("expected H100 capacity %d > A100 %d", perH100, perA100)
	}
	// A sequence that overflows every degree-4 slot but fits 8 H100s must
	// get degree 8 (the planner can land it on the H100 region).
	s := 4*perH100 + 1
	if s > 8*perH100 {
		t.Skipf("classes too close: %d vs %d", perA100, perH100)
	}
	if got := hc.MinDegreeFor(s); got != 8 {
		t.Errorf("MinDegreeFor(%d) = %d, want 8 via the H100 region", s, got)
	}
	// The class-oblivious bottleneck view must be more conservative: the
	// sequence exceeds 8 × the A100-40G per-device capacity.
	if s <= 8*perA100 {
		t.Skipf("sequence %d unexpectedly fits 8 A100s", s)
	}
	if got := hc.Bottleneck().MinDegreeFor(s); got <= 8 {
		t.Errorf("Bottleneck MinDegreeFor(%d) = %d, want > 8", s, got)
	}
}

func TestHeterogeneousCapsAndValidate(t *testing.T) {
	m := mixed(t,
		cluster.ClassCount{Class: cluster.A100_40G, Devices: 8},
		cluster.ClassCount{Class: cluster.H100, Devices: 8})
	hc := ProfileMixed(GPT7B, m)
	if err := hc.Validate(); err != nil {
		t.Fatal(err)
	}
	capped := hc.WithSPDegreeCap(5)
	if capped.MaxDegree() != 4 {
		t.Errorf("MaxDegree under cap 5 = %d, want 4", capped.MaxDegree())
	}
	if got := capped.WithSPDegreeCap(0).MaxDegree(); got != 16 {
		t.Errorf("uncapped MaxDegree = %d, want 16", got)
	}
	withHeads := hc.WithHeadsCap()
	if withHeads.MaxSPDegree != 32 {
		t.Errorf("heads cap = %d, want 32 (GPT-7B heads)", withHeads.MaxSPDegree)
	}
	if withHeads.MaxDegree() != 16 {
		t.Errorf("MaxDegree = %d, want device-bounded 16", withHeads.MaxDegree())
	}
	// Each class is judged by its calibrated capacity: a fitted entry that
	// leaves no room for activations makes the fleet unusable.
	hc.Calibrate = func(c Coeffs, _ []cluster.DeviceClass) Coeffs {
		c.MTokenBytes = float64(c.Topo.UsableMemory())
		return c
	}
	if err := hc.Validate(); err == nil {
		t.Error("Validate accepted a calibration that leaves no token capacity")
	}
}
