// Package pipeline composes pipeline parallelism with FlexSP's flexible
// sequence parallelism. The cluster is carved into p contiguous stage
// sub-clusters, the model's layers are split into p balanced stages, and the
// existing FlexSP machinery — cost model, planner, communicator pool — runs
// unchanged *within* each stage: every micro-batch gets a heterogeneous SP
// plan per stage over that stage's devices.
//
// The package provides three layers:
//
//   - New builds a Pipeline: balanced layer partition plus per-stage
//     costmodel.Coeffs (layer-share compute and all-to-all coefficients,
//     stage-sharded ZeRO states, and 1F1B in-flight activation accounting).
//   - Simulate1F1B is a stage-level discrete-event executor for the
//     non-interleaved 1F1B schedule: warm-up, steady 1F1B, cool-down, with
//     inter-stage point-to-point transfers charged on dependency edges (so
//     they overlap compute on other micro-batches) and per-stage bubble
//     accounting.
//   - Planner jointly chooses the PP degree and the per-stage flexible-SP
//     plans: it sweeps PP ∈ Degrees, runs Alg. 1's micro-batch-count search
//     within each stage sub-cluster, and keeps the pipeline minimizing the
//     simulated iteration time. PP = 1 is in the default sweep, so the
//     joint plan never loses to the flat FlexSP plan it generalizes
//     (unless the caller pins Degrees to exclude 1).
package pipeline

import (
	"fmt"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
)

// Stage is one pipeline stage: a contiguous slice of layers on a contiguous
// sub-cluster.
type Stage struct {
	// Index is the stage position, 0 = the input stage.
	Index int
	// Layers is the number of transformer layers assigned to the stage.
	Layers int
	// Devices is the stage's device range within the full cluster.
	Devices cluster.DeviceRange
	// InFlight is the number of micro-batches the 1F1B schedule keeps
	// resident on this stage: min(p − Index, m).
	InFlight int
	// Coeffs is the stage-local cost model (sub-cluster topology, layer
	// share, in-flight-aware activation memory).
	Coeffs costmodel.Coeffs
}

// Pipeline is a model and cluster partitioned into stages for an iteration
// of M micro-batches.
type Pipeline struct {
	// Base is the flat (whole-model, whole-cluster) cost model. For a
	// heterogeneous fleet (NewHetero) it is the conservative bottleneck view;
	// per-stage truth lives in each Stage's Coeffs.
	Base costmodel.Coeffs
	// PP is the pipeline-parallel degree (number of stages).
	PP int
	// M is the micro-batch count the in-flight accounting assumes.
	M int
	// Stages are the stages, input first.
	Stages []Stage
}

// New partitions the model and cluster into pp stages for an iteration of m
// micro-batches. Layers are split as evenly as possible (earlier stages take
// the remainder); devices are carved into equal contiguous ranges. The
// base cost model's communication style and SP-degree cap carry over to
// every stage.
func New(base costmodel.Coeffs, pp, m int) (Pipeline, error) {
	if err := checkShape(base.Model, pp, m); err != nil {
		return Pipeline{}, err
	}
	sub, err := base.Topo.Carve(pp)
	if err != nil {
		return Pipeline{}, fmt.Errorf("pipeline: %w", err)
	}
	views := make([]cluster.Topology, pp)
	for s := range views {
		views[s] = sub
	}
	return build(base, views, m), nil
}

// NewHetero partitions the model over a heterogeneous fleet: devices are
// carved into pp equal contiguous stage ranges and layers are apportioned
// proportionally to each stage's bottleneck compute rate, so a stage on
// H100 nodes takes more layers than one on A100 nodes and per-stage times
// balance — the unbalanced-but-faster split a mixed fleet wants. Each
// stage's cost model is profiled on its range's bottleneck view (a stage
// straddling classes is paced by its slowest device); stage-internal
// planning therefore sees a homogeneous sub-cluster. On a single-class
// fleet the split degenerates to New's balanced partition.
func NewHetero(h costmodel.HeteroCoeffs, pp, m int) (Pipeline, error) {
	if err := checkShape(h.Model, pp, m); err != nil {
		return Pipeline{}, err
	}
	n := h.Mixed.NumDevices()
	if n%pp != 0 {
		return Pipeline{}, fmt.Errorf("pipeline: %d devices not divisible into %d stages", n, pp)
	}
	per := n / pp
	views := make([]cluster.Topology, pp)
	for s := range views {
		v, err := h.Mixed.RangeView(cluster.DeviceRange{Start: s * per, Size: per})
		if err != nil {
			return Pipeline{}, fmt.Errorf("pipeline: %w", err)
		}
		views[s] = v
	}
	return build(h.Bottleneck(), views, m), nil
}

// checkShape rejects PP degrees and micro-batch counts no pipeline of the
// model can have.
func checkShape(model costmodel.ModelConfig, pp, m int) error {
	switch {
	case pp < 1:
		return fmt.Errorf("pipeline: non-positive PP degree %d", pp)
	case pp > model.Layers:
		return fmt.Errorf("pipeline: PP=%d exceeds %d layers", pp, model.Layers)
	case m < 1:
		return fmt.Errorf("pipeline: non-positive micro-batch count %d", m)
	}
	return nil
}

// build assembles the stages over equal contiguous device ranges, one per
// view: layers are apportioned by each view's compute rate (an even split
// when the views match), and each stage is profiled on its view with the
// base model's communication style and SP-degree cap.
func build(base costmodel.Coeffs, views []cluster.Topology, m int) Pipeline {
	pp := len(views)
	per := base.Topo.NumDevices() / pp
	weights := make([]float64, pp)
	for s, v := range views {
		weights[s] = v.EffFLOPS
	}
	layers := apportionLayers(base.Model.Layers, weights)
	p := Pipeline{Base: base, PP: pp, M: m, Stages: make([]Stage, pp)}
	for s := range views {
		inFlight := pp - s
		if inFlight > m {
			inFlight = m
		}
		c := costmodel.StageProfile(base.Model, views[s], layers[s], base.Model.Layers, inFlight)
		c.Style = base.Style
		c.MaxSPDegree = base.MaxSPDegree
		p.Stages[s] = Stage{
			Index:    s,
			Layers:   layers[s],
			Devices:  cluster.DeviceRange{Start: s * per, Size: per},
			InFlight: inFlight,
			Coeffs:   c,
		}
	}
	return p
}

// apportionLayers splits total layers proportionally to the stage weights
// (largest-remainder method, every stage at least one layer, deterministic).
func apportionLayers(total int, weights []float64) []int {
	k := len(weights)
	var sum float64
	for _, w := range weights {
		sum += w
	}
	layers := make([]int, k)
	fracs := make([]float64, k)
	assigned := 0
	for i, w := range weights {
		raw := float64(total) * w / sum
		layers[i] = int(raw)
		if layers[i] < 1 {
			layers[i] = 1
		}
		fracs[i] = raw - float64(int(raw))
		assigned += layers[i]
	}
	for assigned < total {
		best := 0
		for i := 1; i < k; i++ {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		layers[best]++
		fracs[best] = -1
		assigned++
	}
	for assigned > total {
		// Clamping to ≥1 can overshoot on extreme weight skews; take the
		// excess back from the largest stages.
		big := 0
		for i := 1; i < k; i++ {
			if layers[i] > layers[big] {
				big = i
			}
		}
		layers[big]--
		assigned--
	}
	return layers
}

// TokenCapacity is the number of tokens of one micro-batch the pipeline can
// hold: the most constrained stage bounds it, since every micro-batch
// traverses every stage.
func (p Pipeline) TokenCapacity() int {
	capTokens := -1
	for _, s := range p.Stages {
		if c := s.Coeffs.ClusterTokenCapacity(); capTokens < 0 || c < capTokens {
			capTokens = c
		}
	}
	if capTokens < 0 {
		return 0
	}
	return capTokens
}

// P2PTime prices the inter-stage transfer of one micro-batch's boundary
// activations (and, symmetrically, their gradients): tokens × hidden × bf16
// bytes. Adjacent stages sit on adjacent device ranges, so the transfer
// crosses the node NIC when a stage spans at least a node and stays on
// NVLink when several stages share one node. The transfer occupies the link,
// not the stage, so callers charge it on schedule dependency edges where it
// overlaps compute on other micro-batches.
func (p Pipeline) P2PTime(tokens int) float64 {
	if p.PP <= 1 || tokens <= 0 {
		return 0
	}
	bytes := float64(tokens) * float64(p.Base.Model.HiddenDim) * 2
	bw := p.Base.Topo.InterBW
	if per := p.Base.Topo.NumDevices() / p.PP; per < p.Base.Topo.DevicesPerNode {
		bw = p.Base.Topo.IntraBW
	}
	return bytes/bw + p.Base.Beta2
}

// Validate checks the partition invariants: layers and devices fully covered,
// stages contiguous and disjoint.
func (p Pipeline) Validate() error {
	var layers, devices int
	for i, s := range p.Stages {
		if s.Index != i {
			return fmt.Errorf("pipeline: stage %d has index %d", i, s.Index)
		}
		if s.Devices.Start != devices {
			return fmt.Errorf("pipeline: stage %d starts at device %d, want %d", i, s.Devices.Start, devices)
		}
		layers += s.Layers
		devices += s.Devices.Size
	}
	if layers != p.Base.Model.Layers {
		return fmt.Errorf("pipeline: stages cover %d layers of %d", layers, p.Base.Model.Layers)
	}
	if devices != p.Base.Topo.NumDevices() {
		return fmt.Errorf("pipeline: stages cover %d devices of %d", devices, p.Base.Topo.NumDevices())
	}
	return nil
}
