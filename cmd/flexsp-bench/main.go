// Command flexsp-bench regenerates the paper's tables and figures against
// the simulated cluster. Each subcommand maps to one experiment of the
// evaluation:
//
//	flexsp-bench table1        # Table 1: homogeneous SP grid, times + A2A ratio
//	flexsp-bench fig1          # Fig. 1: motivating example
//	flexsp-bench fig2          # Fig. 2: dataset length distributions
//	flexsp-bench fig4          # Fig. 4: end-to-end comparison grid
//	flexsp-bench table3fig5    # Table 3 + Fig. 5: case study
//	flexsp-bench fig6          # Fig. 6: scalability sweeps
//	flexsp-bench fig7          # Fig. 7: ablations
//	flexsp-bench fig8          # Fig. 8: solver scalability
//	flexsp-bench fig9          # Fig. 9: estimator accuracy
//	flexsp-bench table4        # Table 4: bucketing bias
//	flexsp-bench table5        # Table 5: model configurations
//	flexsp-bench appendixE     # Appendix E: ring-attention flexible CP
//	flexsp-bench pipeline      # hybrid PP×SP: joint planner vs flat FlexSP vs Megatron
//	flexsp-bench heterogeneous # mixed A100/H100 fleet: placement-aware vs class-oblivious
//	flexsp-bench solver        # solver hot path: Alg. 1 wall, planner wall per strategy, cache stats
//	flexsp-bench serve         # flexsp-serve load bench: concurrent clients, throughput, tail latency
//	flexsp-bench stream        # streaming ingestion: plan-after-close latency, speculative vs cold
//	flexsp-bench elastic       # elastic fleet: warm vs cold replanning after node loss, chaos run
//	flexsp-bench fleet         # fleet router: 3-replica scaling, replica kill, peer-cache rebalance
//	flexsp-bench calibration   # cost-model calibration: self-fit closed loop, ±10% sensitivity
//	flexsp-bench all           # everything above
//
// Flags: -quick shrinks batch sizes/iterations, -seed, -iters and -devices
// override the experiment configuration; -cluster (e.g.
// "mixed:32xA100,32xH100") picks the heterogeneous experiment's fleet. The
// heterogeneous, solver, serve, stream, elastic and fleet experiments also
// write their results as machine-readable JSON (default
// BENCH_heterogeneous.json / BENCH_solver.json / BENCH_serve.json /
// BENCH_stream.json / BENCH_elastic.json / BENCH_fleet.json /
// BENCH_calibration.json, see -benchjson, -solverjson, -servejson,
// -streamjson, -elasticjson, -fleetjson and -calibjson) so perf can be
// tracked across commits. The serve experiment starts an in-process daemon by default;
// -serveaddr points it at a running flexsp-serve instead.
// -cpuprofile writes a pprof CPU profile of the run; -memprofile writes a
// heap profile at exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"flexsp/internal/cliutil"
	"flexsp/internal/experiments"
	"flexsp/internal/obs"
)

func main() {
	// The body runs in its own function so deferred cleanup — notably
	// flushing the -cpuprofile — still happens on error exits.
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "use the reduced experiment configuration")
	seed := flag.Int64("seed", 0, "override the sampling seed")
	iters := flag.Int("iters", 0, "override iterations per cell")
	devices := flag.Int("devices", 0, "override the cluster size (multiple of 8, or < 8 for one node); the heterogeneous experiment splits it half A100, half H100")
	clusterSpec := flag.String("cluster", "", "mixed-fleet spec for the heterogeneous experiment, e.g. mixed:32xA100,32xH100")
	benchJSON := flag.String("benchjson", "BENCH_heterogeneous.json", "path for the heterogeneous experiment's JSON result (empty disables)")
	solverJSON := flag.String("solverjson", "BENCH_solver.json", "path for the solver experiment's JSON result (empty disables)")
	serveJSON := flag.String("servejson", "BENCH_serve.json", "path for the serve experiment's JSON result (empty disables)")
	streamJSON := flag.String("streamjson", "BENCH_stream.json", "path for the stream experiment's JSON result (empty disables)")
	elasticJSON := flag.String("elasticjson", "BENCH_elastic.json", "path for the elastic experiment's JSON result (empty disables)")
	fleetJSON := flag.String("fleetjson", "BENCH_fleet.json", "path for the fleet experiment's JSON result (empty disables)")
	calibJSON := flag.String("calibjson", "BENCH_calibration.json", "path for the calibration experiment's JSON result (empty disables)")
	serveAddr := flag.String("serveaddr", "", "run the serve bench against this flexsp-serve URL (e.g. http://127.0.0.1:8080) instead of an in-process daemon")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Usage = usage
	flag.Parse()

	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexsp-bench: -cpuprofile:", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "flexsp-bench: -cpuprofile:", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "flexsp-bench: -memprofile:", err)
			}
		}()
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *iters > 0 {
		cfg.Iterations = *iters
	}
	// -devices and -cluster configure different experiments (the latter only
	// the heterogeneous one), so validate them independently.
	if err := cliutil.ValidateFleet(*devices, ""); err != nil {
		fmt.Fprintln(os.Stderr, "flexsp-bench:", err)
		return 1
	}
	if err := cliutil.ValidateFleet(0, *clusterSpec); err != nil {
		fmt.Fprintln(os.Stderr, "flexsp-bench:", err)
		return 1
	}
	if *devices != 0 {
		cfg.Devices = *devices
	}
	if *clusterSpec != "" {
		cfg.ClusterSpec = *clusterSpec
	}

	args := flag.Args()
	if len(args) != 1 {
		usage()
		return 2
	}

	failed := false
	runners := map[string]func(experiments.Config) string{
		"table1":     func(c experiments.Config) string { return experiments.Table1(c).Render() },
		"fig1":       func(c experiments.Config) string { return experiments.Fig1(c).Render() },
		"fig2":       func(c experiments.Config) string { return experiments.Fig2(c).Render() },
		"fig4":       func(c experiments.Config) string { return experiments.Fig4(c, nil, nil).Render() },
		"table3fig5": func(c experiments.Config) string { return experiments.CaseStudy(c).Render() },
		"fig6":       func(c experiments.Config) string { return experiments.Fig6(c).Render() },
		"fig7":       func(c experiments.Config) string { return experiments.Fig7(c).Render() },
		"fig8":       func(c experiments.Config) string { return experiments.Fig8(c).Render() },
		"fig9":       func(c experiments.Config) string { return experiments.Fig9(c).Render() },
		"table4":     func(c experiments.Config) string { return experiments.Table4(c).Render() },
		"table5":     func(c experiments.Config) string { return experiments.Table5() },
		"appendixE":  func(c experiments.Config) string { return experiments.AppendixE(c).Render() },
		"pipeline":   func(c experiments.Config) string { return experiments.Pipeline(c).Render() },
		"heterogeneous": func(c experiments.Config) string {
			r := experiments.Heterogeneous(c)
			if *benchJSON != "" {
				if err := writeBenchJSON(*benchJSON, r); err != nil {
					fmt.Fprintln(os.Stderr, "flexsp-bench:", err)
					failed = true
					return r.Render()
				}
				fmt.Printf("[wrote %s]\n", *benchJSON)
			}
			return r.Render()
		},
		"solver": func(c experiments.Config) string {
			r := experiments.SolverBench(c)
			if *solverJSON != "" {
				if err := writeBenchJSON(*solverJSON, r); err != nil {
					fmt.Fprintln(os.Stderr, "flexsp-bench:", err)
					failed = true
					return r.Render()
				}
				fmt.Printf("[wrote %s]\n", *solverJSON)
			}
			return r.Render()
		},
		"serve": func(c experiments.Config) string {
			r := experiments.ServeBench(c, *serveAddr)
			if *serveJSON != "" {
				if err := writeBenchJSON(*serveJSON, r); err != nil {
					fmt.Fprintln(os.Stderr, "flexsp-bench:", err)
					failed = true
					return r.Render()
				}
				fmt.Printf("[wrote %s]\n", *serveJSON)
			}
			return r.Render()
		},
		"stream": func(c experiments.Config) string {
			r := experiments.StreamBench(c)
			if *streamJSON != "" {
				if err := writeBenchJSON(*streamJSON, r); err != nil {
					fmt.Fprintln(os.Stderr, "flexsp-bench:", err)
					failed = true
					return r.Render()
				}
				fmt.Printf("[wrote %s]\n", *streamJSON)
			}
			return r.Render()
		},
		"elastic": func(c experiments.Config) string {
			r := experiments.ElasticBench(c)
			if *elasticJSON != "" {
				if err := writeBenchJSON(*elasticJSON, r); err != nil {
					fmt.Fprintln(os.Stderr, "flexsp-bench:", err)
					failed = true
					return r.Render()
				}
				fmt.Printf("[wrote %s]\n", *elasticJSON)
			}
			return r.Render()
		},
		"fleet": func(c experiments.Config) string {
			r := experiments.FleetBench(c)
			if *fleetJSON != "" {
				if err := writeBenchJSON(*fleetJSON, r); err != nil {
					fmt.Fprintln(os.Stderr, "flexsp-bench:", err)
					failed = true
					return r.Render()
				}
				fmt.Printf("[wrote %s]\n", *fleetJSON)
			}
			return r.Render()
		},
		"calibration": func(c experiments.Config) string {
			r := experiments.CalibrationBench(c)
			if *calibJSON != "" {
				if err := writeBenchJSON(*calibJSON, r); err != nil {
					fmt.Fprintln(os.Stderr, "flexsp-bench:", err)
					failed = true
					return r.Render()
				}
				fmt.Printf("[wrote %s]\n", *calibJSON)
			}
			return r.Render()
		},
	}
	order := []string{"table5", "table1", "fig1", "fig2", "fig4", "table3fig5",
		"fig6", "fig7", "fig8", "fig9", "table4", "appendixE", "pipeline",
		"heterogeneous", "solver", "serve", "stream", "elastic", "fleet",
		"calibration"}

	run := func(name string) {
		start := time.Now()
		fmt.Println(runners[name](cfg))
		fmt.Printf("[%s completed in %.1fs]\n\n", name, time.Since(start).Seconds())
	}

	switch cmd := args[0]; cmd {
	case "all":
		for _, name := range order {
			run(name)
		}
	default:
		if _, ok := runners[cmd]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", cmd)
			usage()
			return 2
		}
		run(cmd)
	}
	if failed {
		return 1
	}
	return 0
}

func writeBenchJSON(path string, r interface{}) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: flexsp-bench [-quick] [-seed N] [-iters N] [-devices N] [-cluster SPEC] [-serveaddr URL] [-cpuprofile FILE] [-memprofile FILE] <experiment>

experiments: table1 fig1 fig2 fig4 table3fig5 fig6 fig7 fig8 fig9 table4 table5 appendixE pipeline heterogeneous solver serve stream elastic fleet calibration all`)
	flag.PrintDefaults()
}
