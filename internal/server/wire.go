package server

import (
	"flexsp/internal/cluster"
	"flexsp/internal/pipeline"
	"flexsp/internal/planner"
	"flexsp/internal/solver"
)

// WireVersion is the protocol version tagged into every /v2 plan envelope.
const WireVersion = 2

// PlanRequest is the body of POST /v2/plan: one batch of sequence lengths
// plus the named strategy to plan it with. An empty strategy defaults to
// "flexsp"; MaxCtx sizes the static baselines (deepspeed, megatron) and is
// ignored by the adaptive strategies; Tenant labels the request for the
// per-tenant admission control (an empty tenant is one shared bucket);
// Explain asks for the envelope's provenance attachment.
type PlanRequest struct {
	Strategy string `json:"strategy,omitempty"`
	Lengths  []int  `json:"lengths"`
	MaxCtx   int    `json:"maxCtx,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	Explain  bool   `json:"explain,omitempty"`
}

// MegatronJSON is the megatron strategy's envelope section: the winning
// (TP, CP, PP) grid point and its analytic cost (there are no executable
// micro-plans for this baseline).
type MegatronJSON struct {
	TP        int     `json:"tp"`
	CP        int     `json:"cp"`
	PP        int     `json:"pp"`
	Recompute string  `json:"recompute"`
	Time      float64 `json:"time"`
	Comm      float64 `json:"comm"`
	Rounds    int     `json:"rounds"`
}

// PlanEnvelope is the body of a successful POST /v2/plan: a version- and
// strategy-tagged union. Exactly one of Flat (flexsp and the homogeneous
// baselines), Pipelined (the joint PP×SP strategy) or Megatron (the analytic
// grid baseline) is set; the flat and pipelined sections keep the encoding
// the retired /v1/solve and /v1/solve/pipelined routes served, byte for
// byte.
type PlanEnvelope struct {
	Version          int     `json:"version"`
	Strategy         string  `json:"strategy"`
	EstTime          float64 `json:"estTime"`
	SolveWallSeconds float64 `json:"solveWallSeconds"`
	// Degraded is set on elastic daemons while the serving plan state lags
	// the live topology (events arrived, background replan not finished):
	// the plan is valid for the previous fleet view. Static daemons never
	// set it, keeping their envelopes byte-identical to earlier releases.
	Degraded bool `json:"degraded,omitempty"`
	// Calibration tags envelopes priced by a fitted cost model with the
	// calibration file's identity (e.g. "v3 (sim-grid)"). Omitted under the
	// analytic built-in coefficients, keeping uncalibrated envelopes
	// byte-identical to earlier releases.
	Calibration string             `json:"calibration,omitempty"`
	Flat        *SolveResponse     `json:"flat,omitempty"`
	Pipelined   *PipelinedResponse `json:"pipelined,omitempty"`
	Megatron    *MegatronJSON      `json:"megatron,omitempty"`
	// Stream is the session's stats, attached only to envelopes returned by
	// POST /v2/stream/{id}/close (additive: plain /v2/plan envelopes never
	// carry it).
	Stream *solver.StreamStats `json:"stream,omitempty"`
	// Explain is the plan's provenance, attached when the request set
	// "explain": true.
	Explain *ExplainJSON `json:"explain,omitempty"`
}

// Plans decodes the envelope's executable micro-plans: the flat plans when
// present, the per-stage plans flattened micro-batch-major for a pipelined
// envelope, and nil for analytic strategies (megatron).
func (e PlanEnvelope) Plans() []planner.MicroPlan {
	switch {
	case e.Flat != nil:
		return DecodePlans(e.Flat.Micro)
	case e.Pipelined != nil:
		var out []planner.MicroPlan
		for _, stages := range e.Pipelined.Plans {
			out = append(out, DecodePlans(stages)...)
		}
		return out
	}
	return nil
}

// GroupJSON is one SP group on the wire. Start/Size carry the placed device
// range on heterogeneous fleets; both are zero for unplaced groups.
type GroupJSON struct {
	Degree  int   `json:"degree"`
	Lengths []int `json:"lengths"`
	Start   int   `json:"start,omitempty"`
	Size    int   `json:"size,omitempty"`
}

// MicroPlanJSON is one micro-batch plan on the wire.
type MicroPlanJSON struct {
	Time   float64     `json:"time"`
	Groups []GroupJSON `json:"groups"`
}

// SolveResponse is a /v2 envelope's flat section: the chosen micro-batch
// plan sequence and its estimate. The Micro field is produced by
// EncodePlans, so a plan served over HTTP is byte-identical to encoding an
// in-process Solve of the same batch.
type SolveResponse struct {
	M                int             `json:"m"`
	MMin             int             `json:"mMin"`
	EstTime          float64         `json:"estTime"`
	SolveWallSeconds float64         `json:"solveWallSeconds"`
	Micro            []MicroPlanJSON `json:"micro"`
}

// Plans decodes the wire plans back into planner micro-plans, ready for
// System.Execute on the client side.
func (r SolveResponse) Plans() []planner.MicroPlan {
	return DecodePlans(r.Micro)
}

// StageJSON is one pipeline stage on the wire.
type StageJSON struct {
	Layers int `json:"layers"`
	Start  int `json:"start"`
	Size   int `json:"size"`
}

// CandidateJSON summarizes one swept PP degree on the wire.
type CandidateJSON struct {
	PP         int     `json:"pp"`
	M          int     `json:"m"`
	Time       float64 `json:"time"`
	BubbleFrac float64 `json:"bubbleFrac"`
	Feasible   bool    `json:"feasible"`
	Note       string  `json:"note,omitempty"`
}

// PipelinedResponse is a /v2 envelope's pipelined section: the chosen PP
// degree, the per-stage layer/device split, the per-stage
// micro-batch plans (Plans[j][s] is micro-batch j's plan on stage s) and the
// swept candidates.
type PipelinedResponse struct {
	PP               int               `json:"pp"`
	M                int               `json:"m"`
	EstTime          float64           `json:"estTime"`
	BubbleFrac       float64           `json:"bubbleFrac"`
	Stages           []StageJSON       `json:"stages"`
	Plans            [][]MicroPlanJSON `json:"plans"`
	Candidates       []CandidateJSON   `json:"candidates"`
	SolveWallSeconds float64           `json:"solveWallSeconds"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// EncodePlans converts planner micro-plans to their wire form. It is the
// single encoding used by the daemon and by tests comparing HTTP plans
// against in-process solves.
func EncodePlans(plans []planner.MicroPlan) []MicroPlanJSON {
	out := make([]MicroPlanJSON, len(plans))
	for i, mp := range plans {
		m := MicroPlanJSON{Time: mp.Time, Groups: make([]GroupJSON, 0, len(mp.Groups))}
		for _, g := range mp.Groups {
			m.Groups = append(m.Groups, GroupJSON{
				Degree:  g.Degree,
				Lengths: g.Lens,
				Start:   g.Range.Start,
				Size:    g.Range.Size,
			})
		}
		out[i] = m
	}
	return out
}

// DecodePlans is the inverse of EncodePlans.
func DecodePlans(micro []MicroPlanJSON) []planner.MicroPlan {
	out := make([]planner.MicroPlan, len(micro))
	for i, m := range micro {
		mp := planner.MicroPlan{Time: m.Time, Groups: make([]planner.Group, 0, len(m.Groups))}
		for _, g := range m.Groups {
			mp.Groups = append(mp.Groups, planner.Group{
				Degree: g.Degree,
				Lens:   g.Lengths,
				Range:  cluster.DeviceRange{Start: g.Start, Size: g.Size},
			})
		}
		out[i] = mp
	}
	return out
}

// EncodeResult converts a solver result to the flat section's wire form.
func EncodeResult(res solver.Result) SolveResponse {
	return SolveResponse{
		M:                res.M,
		MMin:             res.MMin,
		EstTime:          res.Time,
		SolveWallSeconds: res.SolveWall.Seconds(),
		Micro:            EncodePlans(res.Plans),
	}
}

// EncodePipelined converts a joint PP×SP result to the pipelined section's
// wire form.
func EncodePipelined(res pipeline.Result) PipelinedResponse {
	out := PipelinedResponse{
		PP:               res.Pipe.PP,
		M:                res.Pipe.M,
		EstTime:          res.Time,
		BubbleFrac:       res.Sched.BubbleFrac,
		SolveWallSeconds: res.SolveWall.Seconds(),
		Stages:           make([]StageJSON, 0, len(res.Pipe.Stages)),
		Plans:            make([][]MicroPlanJSON, len(res.Plans)),
	}
	for _, st := range res.Pipe.Stages {
		out.Stages = append(out.Stages, StageJSON{
			Layers: st.Layers,
			Start:  st.Devices.Start,
			Size:   st.Devices.Size,
		})
	}
	for j, stages := range res.Plans {
		out.Plans[j] = EncodePlans(stages)
	}
	for _, c := range res.Candidates {
		out.Candidates = append(out.Candidates, CandidateJSON{
			PP:         c.PP,
			M:          c.M,
			Time:       c.Time,
			BubbleFrac: c.BubbleFrac,
			Feasible:   c.Feasible,
			Note:       c.Note,
		})
	}
	return out
}
