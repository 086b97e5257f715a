package server

import (
	"fmt"
	"sort"
	"strings"

	"flexsp/internal/costmodel"
	"flexsp/internal/pipeline"
	"flexsp/internal/planner"
	"flexsp/internal/solver"
)

// ExplainJSON is a plan's provenance: where its estimated time comes from
// (per-group cost-term breakdown under the cost model) and what the solver
// rejected on the way (the Alg. 1 micro-batch-count trials, the swept PP
// degrees). It rides in the v2 envelope when the request asks for it
// ("explain": true) and backs the facade's Plan.Explain and the
// flexsp-solve -explain flag.
type ExplainJSON struct {
	// Strategy is the plan's strategy name.
	Strategy string `json:"strategy"`
	// EstTime is the plan's estimated iteration seconds.
	EstTime float64 `json:"est_time"`
	// SolveWallSeconds is the planning wall-clock time.
	SolveWallSeconds float64 `json:"solve_wall_seconds,omitempty"`
	// M and MMin are the chosen and minimum feasible micro-batch counts
	// (flat and pipelined strategies).
	M    int `json:"m,omitempty"`
	MMin int `json:"m_min,omitempty"`
	// PP is the chosen pipeline degree (pipeline strategy only).
	PP int `json:"pp,omitempty"`
	// Micro breaks each micro-batch down; only the slowest micro-batch
	// carries full per-group cost terms (the others summarize), keeping the
	// attachment small at large M.
	Micro []MicroExplainJSON `json:"micro,omitempty"`
	// Trials are the rejected alternatives of Alg. 1's M-window: every
	// explored micro-batch count with its estimate, its failure reason, or
	// the lower bound that got it abandoned before it was fully planned.
	Trials []solver.TrialSummary `json:"trials,omitempty"`
	// Candidates are the swept PP degrees of the joint planner.
	Candidates []CandidateJSON `json:"candidates,omitempty"`
	// Note carries strategy-specific detail (e.g. the megatron grid point).
	Note string `json:"note,omitempty"`
	// Calibration names the fitted coefficient set the plan was priced under
	// (a calibration file tag like "v3 (sim-grid)"); omitted when the
	// analytic built-in cost model produced the estimate.
	Calibration string `json:"calibration,omitempty"`
}

// MicroExplainJSON breaks one micro-batch down for provenance.
type MicroExplainJSON struct {
	// Index is the micro-batch position in the plan sequence.
	Index int `json:"index"`
	// Time is the micro-batch's estimated makespan, seconds.
	Time float64 `json:"time"`
	// Degrees is the group degree multiset, descending.
	Degrees []int `json:"degrees"`
	// Groups carries per-group cost terms; filled only for the critical
	// (slowest) micro-batch.
	Groups []GroupExplainJSON `json:"groups,omitempty"`
}

// GroupExplainJSON is one SP group's cost-term breakdown under the cost
// model: the compute/communication split of its time (Eqs. 12–14) and the
// memory headroom its token load leaves (Eq. 19).
type GroupExplainJSON struct {
	Degree int `json:"degree"`
	// Seqs and Tokens size the group's assignment.
	Seqs   int `json:"seqs"`
	Tokens int `json:"tokens"`
	// ComputeSeconds and CommSeconds are Eq. 12 and Eq. 13; TimeSeconds is
	// their sum (Eq. 14), the term the plan's makespan maxes over.
	ComputeSeconds float64 `json:"compute_seconds"`
	CommSeconds    float64 `json:"comm_seconds"`
	TimeSeconds    float64 `json:"time_seconds"`
	// MemFrac is the group's token load over its token capacity — 1.0 means
	// no memory headroom.
	MemFrac float64 `json:"mem_frac"`
	// Start/Size carry the placed device range on heterogeneous fleets.
	Start int `json:"start,omitempty"`
	Size  int `json:"size,omitempty"`
}

// explainGroup prices one group's cost terms on the range it occupies.
func explainGroup(pr costmodel.Pricing, g planner.Group) GroupExplainJSON {
	c := pr.Group(g.Range)
	out := GroupExplainJSON{
		Degree:         g.Degree,
		Seqs:           len(g.Lens),
		Tokens:         g.Tokens(),
		ComputeSeconds: c.ComputeTime(g.Lens, g.Degree),
		CommSeconds:    c.CommTime(g.Lens, g.Degree),
		TimeSeconds:    c.GroupTime(g.Lens, g.Degree),
		Start:          g.Range.Start,
		Size:           g.Range.Size,
	}
	if capTok := c.MaxTokensPerGroup(g.Degree); capTok > 0 {
		out.MemFrac = float64(g.Tokens()) / float64(capTok)
	}
	return out
}

// explainMicros summarizes every micro-batch and details the slowest one.
func explainMicros(pl *planner.Planner, plans []planner.MicroPlan) []MicroExplainJSON {
	if pl == nil || len(plans) == 0 {
		return nil
	}
	critical := 0
	for i, mp := range plans {
		if mp.Time > plans[critical].Time {
			critical = i
		}
	}
	pr := pl.Pricing()
	out := make([]MicroExplainJSON, len(plans))
	for i, mp := range plans {
		me := MicroExplainJSON{Index: i, Time: mp.Time, Degrees: mp.Degrees()}
		if i == critical {
			me.Groups = make([]GroupExplainJSON, 0, len(mp.Groups))
			for _, g := range mp.Groups {
				me.Groups = append(me.Groups, explainGroup(pr, g))
			}
			sort.SliceStable(me.Groups, func(a, b int) bool {
				return me.Groups[a].TimeSeconds > me.Groups[b].TimeSeconds
			})
		}
		out[i] = me
	}
	return out
}

// ExplainFlat builds provenance for a flat (flexsp or homogeneous-baseline)
// plan: per-micro-batch breakdowns under the planner's cost model plus the
// solver's rejected micro-batch-count trials.
func ExplainFlat(pl *planner.Planner, res solver.Result, strategy string) *ExplainJSON {
	return &ExplainJSON{
		Strategy:         strategy,
		EstTime:          res.Time,
		SolveWallSeconds: res.SolveWall.Seconds(),
		M:                res.M,
		MMin:             res.MMin,
		Micro:            explainMicros(pl, res.Plans),
		Trials:           res.Trials,
	}
}

// ExplainPipelined builds provenance for a joint PP×SP plan: the chosen
// degree, the swept candidates (the rejected alternatives), and the critical
// stage's micro-batch breakdown under the planner's cost model.
func ExplainPipelined(pl *planner.Planner, res pipeline.Result) *ExplainJSON {
	out := &ExplainJSON{
		Strategy:         "pipeline",
		EstTime:          res.Time,
		SolveWallSeconds: res.SolveWall.Seconds(),
		M:                res.Pipe.M,
		PP:               res.Pipe.PP,
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
	// Flatten micro-batch-major for the breakdown: micro j's stage-s plans
	// run concurrently, so detail the slowest (stage, micro) cell.
	var flat []planner.MicroPlan
	for _, stages := range res.Plans {
		flat = append(flat, stages...)
	}
	out.Micro = explainMicros(pl, flat)
	return out
}

// ExplainMegatron builds provenance for the analytic megatron baseline.
func ExplainMegatron(m MegatronJSON) *ExplainJSON {
	return &ExplainJSON{
		Strategy: "megatron",
		EstTime:  m.Time,
		Note: fmt.Sprintf("grid point TP=%d CP=%d PP=%d recompute=%s, comm %.3fs, %d rounds",
			m.TP, m.CP, m.PP, m.Recompute, m.Comm, m.Rounds),
	}
}

// Render formats the provenance for terminals (flexsp-solve -explain).
func (e *ExplainJSON) Render() string {
	if e == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "strategy %s: est %.4fs", e.Strategy, e.EstTime)
	if e.M > 0 {
		fmt.Fprintf(&b, ", M=%d", e.M)
	}
	if e.MMin > 0 {
		fmt.Fprintf(&b, " (M_min=%d)", e.MMin)
	}
	if e.PP > 0 {
		fmt.Fprintf(&b, ", PP=%d", e.PP)
	}
	if e.SolveWallSeconds > 0 {
		fmt.Fprintf(&b, ", solve wall %.3fs", e.SolveWallSeconds)
	}
	b.WriteByte('\n')
	if e.Calibration != "" {
		fmt.Fprintf(&b, "  calibration %s\n", e.Calibration)
	}
	if e.Note != "" {
		fmt.Fprintf(&b, "  %s\n", e.Note)
	}
	for _, m := range e.Micro {
		fmt.Fprintf(&b, "  micro %d: %.4fs, degrees %v\n", m.Index, m.Time, m.Degrees)
		for _, g := range m.Groups {
			fmt.Fprintf(&b, "    SP=%-3d seqs=%-3d tokens=%-6d compute=%.4fs comm=%.4fs time=%.4fs mem=%.0f%%",
				g.Degree, g.Seqs, g.Tokens, g.ComputeSeconds, g.CommSeconds, g.TimeSeconds, 100*g.MemFrac)
			if g.Size > 0 {
				fmt.Fprintf(&b, " devices=[%d,%d)", g.Start, g.Start+g.Size)
			}
			b.WriteByte('\n')
		}
	}
	if len(e.Trials) > 0 {
		b.WriteString("  trials:")
		for _, t := range e.Trials {
			if t.Pruned {
				fmt.Fprintf(&b, " M=%d pruned (≥%.2fs)", t.M, t.Bound)
				continue
			}
			if !t.Feasible {
				fmt.Fprintf(&b, " M=%d infeasible", t.M)
				continue
			}
			if t.M == e.M {
				fmt.Fprintf(&b, " M=%d %.4fs (chosen)", t.M, t.Time)
			} else {
				fmt.Fprintf(&b, " M=%d %.4fs", t.M, t.Time)
			}
		}
		b.WriteByte('\n')
	}
	if len(e.Candidates) > 0 {
		b.WriteString("  candidates:")
		for _, c := range e.Candidates {
			if !c.Feasible {
				fmt.Fprintf(&b, " PP=%d infeasible", c.PP)
				continue
			}
			if c.PP == e.PP {
				fmt.Fprintf(&b, " PP=%d %.4fs (chosen)", c.PP, c.Time)
			} else {
				fmt.Fprintf(&b, " PP=%d %.4fs", c.PP, c.Time)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
