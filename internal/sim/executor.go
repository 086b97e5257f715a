// Package sim is the discrete-event executor: it replays a FlexSP iteration
// plan (a sequence of micro-batch plans, each a set of concurrent SP groups)
// against the cluster topology and cost model, producing the same metrics
// the paper reports — end-to-end iteration time, the All-to-All share of the
// critical path (Fig. 5a), per-device peak memory, communicator-creation
// cost under hot switching (§5), and OOM detection.
//
// Execution semantics follow gradient accumulation (§2.2.1): the micro-batch
// plans of one iteration run sequentially; within a micro-batch, groups run
// concurrently and the micro-batch finishes when its slowest group does.
// Optional multiplicative log-normal noise models kernel-time jitter for the
// estimator-accuracy experiment (Fig. 9).
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
)

// Options configures the executor.
type Options struct {
	// Noise is the standard deviation of multiplicative log-normal jitter
	// applied to each group's compute and communication time; 0 disables it.
	Noise float64
	// Seed drives the jitter (and nothing else).
	Seed int64
	// IncludeZeRO charges the per-micro-batch exposed ZeRO-3 cost.
	IncludeZeRO bool
	// Pool, when non-nil, charges communicator creation on first use of
	// each device range (hot switching). Reuse across iterations is free.
	Pool *cluster.GroupPool
}

// GroupResult is the per-group execution record of one micro-batch.
type GroupResult struct {
	Degree  int
	Seqs    int
	Tokens  int
	Comp    float64
	Comm    float64
	Total   float64
	MemFrac float64 // peak device memory / usable memory
	Range   cluster.DeviceRange
}

// MicroResult is the execution record of one micro-batch.
type MicroResult struct {
	Groups []GroupResult
	// Time is the micro-batch makespan (slowest group plus shared costs).
	Time float64
	// CriticalComm is the All-to-All time on the critical (slowest) group —
	// the communication that actually extends the iteration.
	CriticalComm float64
	// ZeRO is the exposed ZeRO-3 gather/sync time charged to the batch.
	ZeRO float64
	// GroupCreation is the communicator-creation time charged (cache
	// misses in the hot-switching pool).
	GroupCreation float64
}

// IterResult is the execution record of one training iteration.
type IterResult struct {
	Micro []MicroResult
	// Time is the end-to-end iteration seconds.
	Time float64
	// AllToAll is the summed critical-path All-to-All seconds.
	AllToAll float64
	// Comp is the summed critical-path compute seconds.
	Comp float64
	// ZeRO and GroupCreation aggregate the shared costs.
	ZeRO          float64
	GroupCreation float64
	// PeakMemFrac is the maximum per-device memory fraction observed.
	PeakMemFrac float64
	// OOM is set when some group exceeded device memory; Time is then
	// meaningless.
	OOM bool
}

// AllToAllShare returns the fraction of iteration time spent in All-to-All
// on the critical path (the paper's Fig. 5a breakdown).
func (r IterResult) AllToAllShare() float64 {
	if r.Time == 0 {
		return 0
	}
	return r.AllToAll / r.Time
}

// ErrOOM is returned when a plan exceeds device memory.
var ErrOOM = fmt.Errorf("sim: plan exceeds device memory (OOM)")

// ExecuteIteration replays the iteration's micro-batch plans with every
// group priced by c.
func ExecuteIteration(c costmodel.Coeffs, plans []planner.MicroPlan, opts Options) (IterResult, error) {
	return ExecutePriced(c.Pricing(), plans, opts)
}

// ExecuteIterationHetero replays an iteration's micro-batch plans on a
// heterogeneous fleet: each group is costed against the device classes of
// the range it actually occupies, so a group landing on the H100 half runs
// faster and a group squeezed onto 40-GB nodes hits its smaller memory
// budget.
func ExecuteIterationHetero(h costmodel.HeteroCoeffs, plans []planner.MicroPlan, opts Options) (IterResult, error) {
	return ExecutePriced(h.Pricing(), plans, opts)
}

// ExecutePriced replays the iteration's micro-batch plans, pricing each group
// by the device range it runs on. Plans whose groups carry ranges (a
// range-placing planner's output) execute exactly where they were planned;
// unplaced plans are placed lowest-address-first — on a mixed fleet the
// class-oblivious behavior the heterogeneous experiment quantifies. The
// exposed ZeRO-3 term spans the whole fleet, so it is priced on the
// whole-fleet (bottleneck) view.
func ExecutePriced(pr costmodel.Pricing, plans []planner.MicroPlan, opts Options) (IterResult, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	jitter := func() float64 {
		if opts.Noise <= 0 {
			return 1
		}
		return math.Exp(rng.NormFloat64() * opts.Noise)
	}

	n := pr.Fleet.Topo.NumDevices()
	// Per-range coefficients are loop-invariant; profile each range once per
	// iteration, not once per group occurrence.
	ev := pr.Evaluator()
	var zeroTime float64
	if opts.IncludeZeRO {
		zeroTime = pr.Fleet.ZeROTime()
	}
	var res IterResult
	for _, mp := range plans {
		var mr MicroResult

		groups, ranges, err := mp.Placement(n)
		if err != nil {
			return res, fmt.Errorf("sim: %w", err)
		}
		if opts.Pool != nil {
			for _, r := range ranges {
				mr.GroupCreation += opts.Pool.Acquire(r)
			}
		}

		var slowest float64
		var slowestComm, slowestComp float64
		for gi, g := range groups {
			c := ev.Group(ranges[gi])
			comp := c.ComputeTime(g.Lens, g.Degree) * jitter()
			comm := c.CommTime(g.Lens, g.Degree) * jitter()
			mem := c.MemoryBytes(g.Lens, g.Degree)
			gr := GroupResult{
				Degree:  g.Degree,
				Seqs:    len(g.Lens),
				Tokens:  g.Tokens(),
				Comp:    comp,
				Comm:    comm,
				Total:   comp + comm,
				MemFrac: mem / float64(c.Topo.UsableMemory()),
				Range:   ranges[gi],
			}
			mr.Groups = append(mr.Groups, gr)
			if gr.MemFrac > res.PeakMemFrac {
				res.PeakMemFrac = gr.MemFrac
			}
			if gr.MemFrac > 1 {
				res.OOM = true
			}
			if gr.Total > slowest {
				slowest = gr.Total
				slowestComm = gr.Comm
				slowestComp = gr.Comp
			}
		}
		mr.ZeRO = zeroTime
		mr.Time = slowest + mr.ZeRO + mr.GroupCreation
		mr.CriticalComm = slowestComm
		res.Micro = append(res.Micro, mr)
		res.Time += mr.Time
		res.AllToAll += slowestComm
		res.Comp += slowestComp
		res.ZeRO += mr.ZeRO
		res.GroupCreation += mr.GroupCreation
	}
	if res.OOM {
		return res, ErrOOM
	}
	return res, nil
}

// ExecuteIterations replays several iterations (re-solved plans per
// iteration) and returns the mean iteration time, mirroring the paper's
// protocol of averaging over warmed-up iterations.
func ExecuteIterations(c costmodel.Coeffs, perIter [][]planner.MicroPlan, opts Options) (mean float64, results []IterResult, err error) {
	if len(perIter) == 0 {
		return 0, nil, nil
	}
	var sum float64
	for i, plans := range perIter {
		o := opts
		o.Seed = opts.Seed + int64(i)
		r, execErr := ExecuteIteration(c, plans, o)
		if execErr != nil {
			return 0, results, execErr
		}
		results = append(results, r)
		sum += r.Time
	}
	return sum / float64(len(perIter)), results, nil
}
