package experiments

import (
	"fmt"
	"time"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
	"flexsp/internal/report"
	"flexsp/internal/solver"
	"flexsp/internal/workload"
)

// Fig8Point is one cluster-size measurement of the solver-scalability study.
type Fig8Point struct {
	Devices int
	// TrainTime is the estimated per-iteration training seconds.
	TrainTime float64
	// SolveTime is the wall-clock seconds of one Alg. 1 solve.
	SolveTime float64
	// AmortizedSolve is SolveTime divided by the number of nodes (the
	// paper's per-node solver services run concurrently, §6.6).
	AmortizedSolve float64
}

// Fig8Result reproduces paper Fig. 8: estimated training time vs solving
// time vs amortized solving time as the cluster grows 64 → 1024 GPUs (batch
// size scaled proportionally).
type Fig8Result struct {
	Points []Fig8Point
}

// Fig8 runs the sweep.
func Fig8(cfg Config) Fig8Result {
	d := workload.CommonCrawl()
	const maxCtx = 128 << 10
	var res Fig8Result
	for _, n := range []int{64, 128, 256, 512, 1024} {
		topo := cluster.A100Cluster(n)
		c := costmodel.Profile(costmodel.GPT7B, topo)
		sv := solver.New(planner.New(c))
		batchSize := cfg.BatchSize * n / 64
		rng := cfg.rng(int64(n))
		batch := d.Batch(rng, batchSize, maxCtx)

		start := time.Now()
		r, err := sv.Solve(batch)
		wall := time.Since(start).Seconds()
		pt := Fig8Point{Devices: n, SolveTime: wall,
			AmortizedSolve: wall / float64(topo.Nodes)}
		if err == nil {
			pt.TrainTime = r.Time
		}
		res.Points = append(res.Points, pt)
	}
	return res
}

// AmortizedOverlaps reports whether the amortized solving time stays below
// the training time at every scale — the paper's claim that solving is fully
// overlappable.
func (r Fig8Result) AmortizedOverlaps() bool {
	for _, p := range r.Points {
		if p.TrainTime == 0 || p.AmortizedSolve > p.TrainTime {
			return false
		}
	}
	return true
}

// Render formats the sweep.
func (r Fig8Result) Render() string {
	t := report.NewTable("Fig. 8: per-iteration training vs solver time (CommonCrawl, 128K ctx, batch ∝ N)",
		"#GPUs", "train (est.)", "solve (wall)", "amortized solve")
	for _, p := range r.Points {
		t.Add(fmt.Sprintf("%d", p.Devices), report.Secs(p.TrainTime),
			report.Secs(p.SolveTime), report.Secs(p.AmortizedSolve))
	}
	out := t.String()
	if r.AmortizedOverlaps() {
		out += "amortized solving stays below training time at every scale (fully overlappable)\n"
	}
	return out
}
