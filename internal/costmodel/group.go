package costmodel

import (
	"fmt"

	"flexsp/internal/cluster"
)

// GroupCoeffs is the per-placement evaluation of a heterogeneous cost model:
// the shared model-derived coefficients specialized to one placed device
// range. Compute is paced by the slowest device in the range, memory uses
// the minimum usable memory of the spanned classes, and communication uses
// the bottleneck bandwidth — all via the range's cluster.RangeView, so on a
// single-class fleet a GroupCoeffs is numerically identical to the scalar
// Coeffs.
type GroupCoeffs struct {
	Coeffs
	// Range is the placed device range the coefficients describe.
	Range cluster.DeviceRange
}

// HeteroCoeffs is the heterogeneous-cluster cost model: the model-derived
// coefficients shared by every group (the communication style, the SP-degree
// cap, and the cluster-wide ZeRO-3 model-state share — parameters shard over
// the whole fleet regardless of where a group lands) plus the fleet itself,
// from which per-placement GroupCoeffs are derived on demand. Build it with
// ProfileMixed.
type HeteroCoeffs struct {
	// Model is the transformer configuration.
	Model ModelConfig
	// Mixed is the heterogeneous fleet.
	Mixed cluster.MixedTopology
	// Style selects the group communication pattern.
	Style CommStyle
	// MaxSPDegree caps the usable SP degree when positive (Ulysses heads).
	MaxSPDegree int
	// MStateBytes is the per-device model-state footprint shared by every
	// placement: ZeRO-3 shards parameters over the full fleet, so it does
	// not depend on which range a group occupies.
	MStateBytes float64
	// Calibrate, when non-nil, overlays fitted coefficients onto each
	// per-range profile given the device classes the range spans (set from
	// a calibration file via calib.File.Calibrator; costmodel itself never
	// depends on the file format). Nil keeps the analytic profile.
	Calibrate func(Coeffs, []cluster.DeviceClass) Coeffs
}

// ProfileMixed derives the heterogeneous cost model for a model on a mixed
// fleet, the MixedTopology counterpart of Profile.
func ProfileMixed(m ModelConfig, mx cluster.MixedTopology) HeteroCoeffs {
	n := float64(mx.NumDevices())
	return HeteroCoeffs{
		Model:       m,
		Mixed:       mx,
		MStateBytes: bytesPerParamState*m.Params/n + stateWorkingOverheadBytes,
	}
}

// Group returns the placed evaluation for one device range: the scalar
// coefficients profiled on the range's bottleneck view, with the model-state
// share pinned to the fleet-wide value. It panics on malformed ranges, which
// can only come from planner bugs (placements are always aligned
// power-of-two ranges).
func (hc HeteroCoeffs) Group(r cluster.DeviceRange) GroupCoeffs {
	view, err := hc.Mixed.RangeView(r)
	if err != nil {
		panic("costmodel: " + err.Error())
	}
	c := Profile(hc.Model, view)
	c.Style = hc.Style
	c.MaxSPDegree = hc.MaxSPDegree
	c.MStateBytes = hc.MStateBytes
	if hc.Calibrate != nil {
		c = hc.Calibrate(c, hc.Mixed.ClassesIn(r))
	}
	return GroupCoeffs{Coeffs: c, Range: r}
}

// Uniform returns the scalar cost model when the fleet has one device class:
// every range of such a fleet prices like it.
func (hc HeteroCoeffs) Uniform() (Coeffs, bool) {
	topo, ok := hc.Mixed.Uniform()
	if !ok {
		return Coeffs{}, false
	}
	c := Profile(hc.Model, topo)
	c.Style = hc.Style
	c.MaxSPDegree = hc.MaxSPDegree
	if hc.Calibrate != nil {
		c = hc.Calibrate(c, []cluster.DeviceClass{hc.Mixed.NodeGroups[0].Class})
	}
	return c, true
}

// Bottleneck returns the conservative scalar cost model that treats every
// device as the fleet's slowest, smallest-memory class: what a
// class-oblivious planner would assume, and the safe whole-cluster view
// hetero-unaware consumers (baselines, unplaced groups) fall back to.
func (hc HeteroCoeffs) Bottleneck() Coeffs {
	g := hc.Group(hc.Mixed.FullRange())
	return g.Coeffs
}

// WithStyle returns the coefficients with the communication style replaced.
func (hc HeteroCoeffs) WithStyle(s CommStyle) HeteroCoeffs {
	hc.Style = s
	return hc
}

// WithSPDegreeCap caps the SP degree at the largest power of two ≤ d
// (0 removes the cap), mirroring Coeffs.WithSPDegreeCap.
func (hc HeteroCoeffs) WithSPDegreeCap(d int) HeteroCoeffs {
	if d <= 0 {
		hc.MaxSPDegree = 0
		return hc
	}
	p := 1
	for p*2 <= d {
		p *= 2
	}
	hc.MaxSPDegree = p
	return hc
}

// WithHeadsCap applies the Ulysses head-count degree limit.
func (hc HeteroCoeffs) WithHeadsCap() HeteroCoeffs {
	if hc.Model.Heads <= 0 {
		return hc
	}
	return hc.WithSPDegreeCap(hc.Model.Heads)
}

// SPDegrees returns the candidate SP degrees under the cap.
func (hc HeteroCoeffs) SPDegrees() []int {
	ds := hc.Mixed.SPDegrees()
	if hc.MaxSPDegree <= 0 {
		return ds
	}
	var out []int
	for _, d := range ds {
		if d <= hc.MaxSPDegree {
			out = append(out, d)
		}
	}
	return out
}

// MaxDegree returns the largest usable SP degree.
func (hc HeteroCoeffs) MaxDegree() int {
	ds := hc.SPDegrees()
	if len(ds) == 0 {
		return 0
	}
	return ds[len(ds)-1]
}

// nodeGroupRanges returns the device range of each node group, in fleet
// order: the single-class regions of the fleet.
func (hc HeteroCoeffs) nodeGroupRanges() []cluster.DeviceRange {
	out := make([]cluster.DeviceRange, len(hc.Mixed.NodeGroups))
	start := 0
	for i, g := range hc.Mixed.NodeGroups {
		out[i] = cluster.DeviceRange{Start: start, Size: g.Devices()}
		start += g.Devices()
	}
	return out
}

// ClusterTokenCapacity is the total activation tokens the fleet can hold in
// one micro-batch, summing each device's class-specific capacity under the
// (calibrated) profile its group's range gets (the heterogeneous
// generalization of Coeffs.ClusterTokenCapacity).
func (hc HeteroCoeffs) ClusterTokenCapacity() int {
	total := 0
	for _, r := range hc.nodeGroupRanges() {
		total += r.Size * hc.Group(r).MaxTokensPerDevice()
	}
	return total
}

// MinDegreeFor returns the smallest valid SP degree for which SOME aligned
// slot of that size can hold a single sequence of length s — on a mixed
// fleet a long sequence may fit a degree only on the large-memory region —
// or 0 if no slot of any degree can.
func (hc HeteroCoeffs) MinDegreeFor(s int) int {
	for _, d := range hc.SPDegrees() {
		for _, slot := range hc.Mixed.AlignedSlots(d) {
			if hc.Group(slot).MaxTokensPerGroup(d) >= s {
				return d
			}
		}
	}
	return 0
}

// Validate reports whether the model can run on the fleet at all (some
// device class must hold the sharded states plus at least one token).
func (hc HeteroCoeffs) Validate() error {
	if err := hc.Mixed.Validate(); err != nil {
		return err
	}
	for _, r := range hc.nodeGroupRanges() {
		if hc.Group(r).MaxTokensPerDevice() > 0 {
			return nil
		}
	}
	return fmt.Errorf("costmodel: %s model states exceed every device class's memory", hc.Model.Name)
}

// Pricing is how an SP group is priced: as a function of the device range it
// lands on. On a scalar model or a single-class fleet every range prices
// alike, and Group returns Fleet for all of them; on a mixed fleet Group(r)
// is HeteroCoeffs.Group(r). The planner, executor, plan cache and plan
// explanations all price groups through it, so a homogeneous cluster is
// just the fleet whose pricing is constant.
type Pricing struct {
	// Fleet is the whole-fleet cost model: the scalar coefficients, or a
	// mixed fleet's conservative bottleneck view. It also prices unplaced
	// groups.
	Fleet Coeffs
	mixed *HeteroCoeffs // nil when every range prices alike
}

// Pricing prices every device range with c.
func (c Coeffs) Pricing() Pricing { return Pricing{Fleet: c} }

// Pricing returns the fleet's group pricing: per range on a mixed fleet,
// the bottleneck view (equal to every range's profile) on a single-class
// one.
func (hc HeteroCoeffs) Pricing() Pricing {
	p := Pricing{Fleet: hc.Bottleneck()}
	if _, ok := hc.Mixed.Uniform(); !ok {
		p.mixed = &hc
	}
	return p
}

// Uniform reports whether every device range prices alike, so where a group
// lands cannot change its cost.
func (p Pricing) Uniform() bool { return p.mixed == nil }

// Group returns the coefficients of a group occupying r. The zero range (an
// unplaced group) gets Fleet.
func (p Pricing) Group(r cluster.DeviceRange) Coeffs {
	if p.mixed == nil || r.Size == 0 {
		return p.Fleet
	}
	return p.mixed.Group(r).Coeffs
}

// MinDegreeFor returns the smallest valid SP degree at which some range can
// hold a sequence of length s, or 0 if none can.
func (p Pricing) MinDegreeFor(s int) int {
	if p.mixed == nil {
		return p.Fleet.MinDegreeFor(s)
	}
	return p.mixed.MinDegreeFor(s)
}

// TokenCapacity is the fleet's one-micro-batch activation token capacity.
func (p Pricing) TokenCapacity() int {
	if p.mixed == nil {
		return p.Fleet.ClusterTokenCapacity()
	}
	return p.mixed.ClusterTokenCapacity()
}

// GroupEvaluator memoizes Pricing.Group by device range: within one executed
// iteration the same few ranges are evaluated many times, and profiling is
// pure, so the executor keeps this cache instead of re-deriving coefficients
// per occurrence. Not safe for concurrent use; create one per goroutine.
type GroupEvaluator struct {
	p     Pricing
	cache map[cluster.DeviceRange]Coeffs
}

// Evaluator returns a fresh memoizing evaluator of the pricing.
func (p Pricing) Evaluator() *GroupEvaluator {
	return &GroupEvaluator{p: p, cache: make(map[cluster.DeviceRange]Coeffs)}
}

// Group is Pricing.Group with memoization.
func (ev *GroupEvaluator) Group(r cluster.DeviceRange) Coeffs {
	if ev.p.mixed == nil {
		return ev.p.Fleet
	}
	c, ok := ev.cache[r]
	if !ok {
		c = ev.p.Group(r)
		ev.cache[r] = c
	}
	return c
}
