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
//	flexsp-bench all           # everything above
//
// Flags: -quick shrinks batch sizes/iterations, -seed, -iters and -devices
// override the experiment configuration; -cluster (e.g.
// "mixed:32xA100,32xH100") picks the heterogeneous experiment's fleet. The
// heterogeneous experiment also writes its modelled numbers as JSON
// (default BENCH_heterogeneous.json, see -benchjson), which CI regenerates
// byte for byte. Measured performance lives in the perfbench module.
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
	}
	order := []string{"table5", "table1", "fig1", "fig2", "fig4", "table3fig5",
		"fig6", "fig7", "fig8", "fig9", "table4", "appendixE", "pipeline",
		"heterogeneous"}

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
	fmt.Fprintln(os.Stderr, `usage: flexsp-bench [-quick] [-seed N] [-iters N] [-devices N] [-cluster SPEC] [-cpuprofile FILE] [-memprofile FILE] <experiment>

experiments: table1 fig1 fig2 fig4 table3fig5 fig6 fig7 fig8 fig9 table4 table5 appendixE pipeline heterogeneous all`)
	flag.PrintDefaults()
}
