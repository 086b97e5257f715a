// Package experiments regenerates every table and figure of the paper's
// evaluation (ARCHITECTURE.md maps paper sections to packages). Each
// experiment is a pure function of a Config, returning a structured result
// plus a text rendering, so the same code backs the flexsp-bench CLI and
// the bench_test.go harness.
package experiments

import (
	"math/rand"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
	"flexsp/internal/solver"
	"flexsp/internal/workload"
)

// Config scales the experiments. The paper's settings are the defaults;
// Quick() shrinks them for fast benchmark runs.
type Config struct {
	// Devices is the cluster size for the main experiments (paper: 64).
	Devices int
	// BatchSize is the global batch size in sequences (paper: 512).
	BatchSize int
	// Iterations is how many data batches each cell averages over (the
	// paper uses 40 after warm-up; simulation noise is low, so a few
	// suffice).
	Iterations int
	// Seed drives all sampling.
	Seed int64
	// SampleN is the per-dataset sample size for distribution experiments.
	SampleN int
	// ClusterSpec overrides the mixed fleet of the heterogeneous experiment
	// (e.g. "mixed:32xA100,32xH100"); empty uses its default.
	ClusterSpec string
}

// Default returns the paper-faithful configuration.
func Default() Config {
	return Config{Devices: 64, BatchSize: 512, Iterations: 3, Seed: 42, SampleN: 100000}
}

// Quick returns a reduced configuration for benchmark runs.
func Quick() Config {
	return Config{Devices: 64, BatchSize: 128, Iterations: 1, Seed: 42, SampleN: 20000}
}

func (c Config) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed*7919 + salt))
}

func (c Config) coeffs(m costmodel.ModelConfig) costmodel.Coeffs {
	return costmodel.Profile(m, cluster.A100Cluster(c.Devices))
}

func (c Config) newSolver(m costmodel.ModelConfig) *solver.Solver {
	coeffs := c.coeffs(m)
	sv := solver.New(planner.New(coeffs))
	sv.Overhead = coeffs.ZeROTime()
	return sv
}

// drawBatches samples Iterations batches from the dataset under the context
// limit.
func (c Config) drawBatches(d workload.Dataset, maxCtx int, salt int64) [][]int {
	rng := c.rng(salt)
	out := make([][]int, c.Iterations)
	for i := range out {
		out[i] = d.Batch(rng, c.BatchSize, maxCtx)
	}
	return out
}

func sumPlanTime(plans []planner.MicroPlan) float64 {
	var t float64
	for _, p := range plans {
		t += p.Time
	}
	return t
}
