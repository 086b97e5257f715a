// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment, indexed below). Each
// benchmark reports experiment-specific metrics through b.ReportMetric so
// `go test -bench=. -benchmem` reproduces the headline numbers:
//
//	BenchmarkTable1     OOM boundary + All-to-All shares of homogeneous SP
//	BenchmarkFig1       motivating-example speedup
//	BenchmarkFig2       dataset tail masses
//	BenchmarkFig4       end-to-end max speedups vs all baselines
//	BenchmarkCaseStudy  All-to-All reduction (Table 3 / Fig. 5)
//	BenchmarkFig6       throughput-per-GPU speedups at both sweeps
//	BenchmarkFig7       ablation slowdowns
//	BenchmarkFig8       solver wall time and amortized overlap
//	BenchmarkFig9       cost-estimator max error
//	BenchmarkTable4        bucketing token-error gap
//	BenchmarkHeterogeneous placement-aware speedup on a mixed A100/H100 fleet
//	BenchmarkSolver        raw Alg. 1 solve latency on a 512-sequence batch
//	BenchmarkPlanner       single micro-batch planning latency per strategy
package flexsp

import (
	"math/rand"
	"testing"

	"flexsp/internal/costmodel"
	"flexsp/internal/experiments"
	"flexsp/internal/planner"
	"flexsp/internal/workload"
)

func benchCfg() experiments.Config { return experiments.Quick() }

func BenchmarkTable1(b *testing.B) {
	var res experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table1(benchCfg())
	}
	// 8K×512 row: All-to-All share at SP=16 (inter-node) vs SP=8 (NVLink).
	b.ReportMetric(res.Cells[1][2].CommFrac, "a2aShare/8K/SP16")
	b.ReportMetric(res.Cells[1][3].CommFrac, "a2aShare/8K/SP8")
	b.ReportMetric(res.Cells[6][0].IterTime, "iter-s/256K/SP64")
}

func BenchmarkFig1(b *testing.B) {
	var res experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig1(benchCfg())
	}
	b.ReportMetric(res.Speedup(), "hetero-speedup")
}

func BenchmarkFig2(b *testing.B) {
	var res experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig2(benchCfg())
	}
	b.ReportMetric(res.Above32K[0], "github-tail>32K")
	b.ReportMetric(res.Above32K[2], "wiki-tail>32K")
}

func BenchmarkFig4(b *testing.B) {
	var res experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		// The full 3-model grid is heavy; benchmark the GPT-7B slice and
		// regenerate the full grid with `flexsp-bench fig4`.
		res = experiments.Fig4(benchCfg(), []costmodel.ModelConfig{costmodel.GPT7B}, nil)
	}
	b.ReportMetric(res.MaxSpeedup(experiments.SysDeepSpeed), "max-speedup-vs-deepspeed")
	b.ReportMetric(res.MaxSpeedup(experiments.SysMegatron), "max-speedup-vs-megatron")
	b.ReportMetric(res.MaxSpeedup(experiments.SysBatchAda), "max-speedup-vs-batchada")
}

func BenchmarkFig4FullGrid(b *testing.B) {
	if testing.Short() {
		b.Skip("full grid in -short mode")
	}
	var res experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig4(benchCfg(), nil, nil)
	}
	b.ReportMetric(res.MaxSpeedup(experiments.SysDeepSpeed), "max-speedup-vs-deepspeed")
	b.ReportMetric(res.MaxSpeedup(experiments.SysMegatron), "max-speedup-vs-megatron")
}

func BenchmarkCaseStudy(b *testing.B) {
	var res experiments.CaseStudyResult
	for i := 0; i < b.N; i++ {
		res = experiments.CaseStudy(benchCfg())
	}
	b.ReportMetric(res.AllToAllReduction(0), "a2a-reduction-case1")
	b.ReportMetric(res.AllToAllReduction(1), "a2a-reduction-case2")
}

func BenchmarkFig6(b *testing.B) {
	var res experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig6(benchCfg())
	}
	last := res.ByDevices[len(res.ByDevices)-1]
	b.ReportMetric(last.Throughput[experiments.SysFlexSP], "tokens-per-gpu-64gpu")
	if ds := last.Throughput[experiments.SysDeepSpeed]; ds > 0 {
		b.ReportMetric(last.Throughput[experiments.SysFlexSP]/ds, "speedup-64gpu")
	}
}

func BenchmarkFig7(b *testing.B) {
	var res experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig7(benchCfg())
	}
	for _, v := range res.Variants {
		if v.Name == "w/o Sort" {
			b.ReportMetric(v.RelTime[384<<10], "rel-time-wo-sort-384K")
		}
		if v.Name == "greedy assign" {
			b.ReportMetric(v.RelTime[192<<10], "rel-time-greedy-192K")
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	var res experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig8(benchCfg())
	}
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(last.SolveTime, "solve-s-1024gpu")
	b.ReportMetric(last.AmortizedSolve, "amortized-s-1024gpu")
	if res.AmortizedOverlaps() {
		b.ReportMetric(1, "fully-overlappable")
	}
}

func BenchmarkFig9(b *testing.B) {
	var res experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig9(benchCfg())
	}
	b.ReportMetric(res.MaxAbsError(), "max-estimator-error")
}

func BenchmarkTable4(b *testing.B) {
	var res experiments.Table4Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table4(benchCfg())
	}
	b.ReportMetric(res.DPError[1], "dp-error-commoncrawl")
	b.ReportMetric(res.NaiveErr[1], "naive-error-commoncrawl")
}

// BenchmarkPipeline regenerates the hybrid PP×SP comparison: the joint
// planner must match or beat flat FlexSP on the GPT-30B long-tail workload
// and fit the extreme-context probe flat SP cannot place.
func BenchmarkPipeline(b *testing.B) {
	if testing.Short() {
		b.Skip("GPT-30B joint sweep in -short mode")
	}
	var res experiments.PipelineResult
	for i := 0; i < b.N; i++ {
		res = experiments.Pipeline(benchCfg())
	}
	b.ReportMetric(res.MaxSpeedupVsFlat(), "joint-vs-flat-speedup")
	b.ReportMetric(float64(res.FlatInfeasibleFitCount()), "fits-where-flat-oom")
}

// BenchmarkHeterogeneous reports the mixed-fleet headline: the
// placement-aware planner's iteration-time speedup over class-oblivious
// scheduling on an A100/H100 cluster.
func BenchmarkHeterogeneous(b *testing.B) {
	var res experiments.HeterogeneousResult
	for i := 0; i < b.N; i++ {
		res = experiments.Heterogeneous(benchCfg())
	}
	b.ReportMetric(res.AwareSpeedup("oblivious-shuffled"), "aware-vs-oblivious-speedup")
	b.ReportMetric(res.AwareSpeedup("bottleneck-homogeneous"), "aware-vs-bottleneck-speedup")
}

// BenchmarkJointPlanner measures the joint PP×SP solve latency on a
// 256-sequence GPT-30B batch.
func BenchmarkJointPlanner(b *testing.B) {
	sys := MustNewSystem(Config{Devices: 64, Model: GPT30B, IncludeZeRO: true})
	rng := rand.New(rand.NewSource(4))
	batch := workload.CommonCrawl().Batch(rng, 256, 192<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Joint.Solve(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolver measures raw Alg. 1 latency at the paper's batch size.
func BenchmarkSolver(b *testing.B) {
	sys := MustNewSystem(Config{Devices: 64, Model: GPT7B})
	rng := rand.New(rand.NewSource(1))
	batch := workload.CommonCrawl().Batch(rng, 512, 192<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Solver.Solve(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanner measures single micro-batch planning per strategy,
// including the MILP path (problem 17 through the warm-started parallel
// branch and bound).
func BenchmarkPlanner(b *testing.B) {
	sys := MustNewSystem(Config{Devices: 64, Model: GPT7B})
	rng := rand.New(rand.NewSource(2))
	micro := workload.CommonCrawl().Batch(rng, 64, 128<<10)
	for _, strat := range []planner.Strategy{
		planner.StrategyEnum, planner.StrategyGreedy, planner.StrategyMILP,
	} {
		b.Run(strat.String(), func(b *testing.B) {
			pl := planner.New(sys.Coeffs)
			pl.Strategy = strat
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pl.Plan(micro); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
