// Command flexsp-profile fits, checks and stress-tests the cost model's
// calibration: the per-(model, device-class) α-β coefficient tables that
// flexsp.Config.Calibration (and the CLIs' -calibration flags) overlay on the
// analytic built-in profile.
//
//	flexsp-profile fit -o calibration.json            # fit every model × class from the simulator
//	flexsp-profile fit -model GPT-7B -class A100 -o c.json
//	flexsp-profile fit -trace rows.json -o c.json     # fit from external measurement rows
//	flexsp-profile check -calibration c.json          # residual gate: min R² against fresh measurements
//	flexsp-profile sensitivity                        # ±10% coefficient perturbation, re-plan delta
//
// fit sweeps a (sequence length × copies × SP degree) measurement grid
// through the simulated executor per (model, class) pair — or ingests a JSON
// array of measurement rows exported by a real profiling harness (-trace) —
// and writes a versioned calibration file with fit provenance (sample counts,
// R², residual RMS). check re-measures a fresh grid and exits non-zero when
// any entry's prediction R² falls below -min-r2, the CI regression gate.
// sensitivity runs the calibration benchmark: the closed-loop self-fit plus
// the plan-quality cost of each coefficient being ±10% off. Its full run
// (64 devices, 512 sequences, seed 42) regenerates BENCH_calibration.json
// byte for byte, which CI checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"flexsp/internal/calib"
	"flexsp/internal/cliutil"
	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
)

func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) < 2 {
		usage()
		return 2
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "fit":
		err = runFit(os.Args[2:])
	case "check":
		err = runCheck(os.Args[2:])
	case "sensitivity":
		err = runSensitivity(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "flexsp-profile: unknown command %q\n", cmd)
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexsp-profile:", err)
		return 1
	}
	return 0
}

// gridFlags registers the measurement-grid knobs shared by fit and check.
func gridFlags(fs *flag.FlagSet) (model, class *string, devices *int, noise *float64, seed *int64) {
	model = fs.String("model", "", "model to measure (GPT-7B, GPT-13B, GPT-30B; empty = all)")
	class = fs.String("class", "", "device class to measure (A100, A100-80G, H100; empty = all)")
	devices = fs.Int("devices", 64, "fleet size of the measurement cluster")
	noise = fs.Float64("noise", 0, "multiplicative measurement jitter σ (0 = noise-free)")
	seed = fs.Int64("seed", 0, "measurement jitter seed")
	return
}

// gridTargets resolves the (model, class) pairs a run covers: the explicit
// pair when both flags are set, otherwise the cross product over the
// unspecified axis.
func gridTargets(model, class string) ([]costmodel.ModelConfig, []cluster.DeviceClass, error) {
	models := costmodel.Models()
	if model != "" {
		m, err := cliutil.ModelByName(model)
		if err != nil {
			return nil, nil, err
		}
		models = []costmodel.ModelConfig{m}
	}
	classes := cluster.Classes()
	if class != "" {
		dc, err := cluster.ClassByName(class)
		if err != nil {
			return nil, nil, err
		}
		classes = []cluster.DeviceClass{dc}
	}
	return models, classes, nil
}

func runFit(args []string) error {
	fs := flag.NewFlagSet("fit", flag.ExitOnError)
	model, class, devices, noise, seed := gridFlags(fs)
	out := fs.String("o", "calibration.json", "output calibration file")
	version := fs.Int64("version", 1, "calibration version stamped into the file")
	source := fs.String("source", "sim-grid", "provenance label for where the measurements came from")
	fittedAt := fs.Int64("fitted-at", 0, "fit timestamp to stamp (Unix seconds; 0 omits, keeping output reproducible)")
	tracePath := fs.String("trace", "", "fit from this JSON array of measurement rows instead of sweeping the simulator")
	fs.Parse(args)

	file := calib.File{Format: calib.FormatVersion, Version: *version, Source: *source, FittedAtUnix: *fittedAt}
	if *tracePath != "" {
		entries, err := fitTrace(*tracePath, *devices)
		if err != nil {
			return err
		}
		file.Entries = entries
	} else {
		models, classes, err := gridTargets(*model, *class)
		if err != nil {
			return err
		}
		for _, m := range models {
			for _, dc := range classes {
				g := calib.Grid{Model: m, Class: dc, Devices: *devices, Noise: *noise, Seed: *seed}
				entry, err := g.Fit()
				if err != nil {
					return err
				}
				file.Entries = append(file.Entries, entry)
				fmt.Printf("fit %s on %dx%s: %d samples, R² compute %.5f comm %.5f mem %.5f\n",
					entry.Model, *devices, entry.DeviceClass, entry.Provenance.Samples,
					entry.Provenance.ComputeR2, entry.Provenance.CommR2, entry.Provenance.MemR2)
			}
		}
	}
	data, err := file.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s, %d entries)\n", *out, file.Tag(), len(file.Entries))
	return nil
}

// fitTrace groups external measurement rows by (model, device class) and fits
// each group on a fleet of the given size.
func fitTrace(path string, devices int) ([]calib.Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows, err := calib.ParseTrace(data)
	if err != nil {
		return nil, err
	}
	type key struct{ model, class string }
	groups := map[key][]calib.Sample{}
	var order []key
	for _, r := range rows {
		k := key{r.Model, r.DeviceClass}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	var entries []calib.Entry
	for _, k := range order {
		dc, err := cluster.ClassByName(k.class)
		if err != nil {
			return nil, fmt.Errorf("trace row device class: %w", err)
		}
		topo, err := dc.Cluster(devices)
		if err != nil {
			return nil, err
		}
		entry, err := calib.FitEntry(k.model, dc, topo, groups[k])
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry)
		fmt.Printf("fit %s on %s from %d trace rows, R² compute %.5f comm %.5f mem %.5f\n",
			k.model, k.class, len(groups[k]),
			entry.Provenance.ComputeR2, entry.Provenance.CommR2, entry.Provenance.MemR2)
	}
	return entries, nil
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	model, class, devices, noise, seed := gridFlags(fs)
	calPath := fs.String("calibration", "calibration.json", "calibration file to check")
	minR2 := fs.Float64("min-r2", 0.99, "fail when any entry's prediction R² falls below this")
	fs.Parse(args)

	file, err := calib.Load(*calPath)
	if err != nil {
		return err
	}
	models, classes, err := gridTargets(*model, *class)
	if err != nil {
		return err
	}
	checked := 0
	worst := 1.0
	for _, m := range models {
		for _, dc := range classes {
			entry, ok := file.Lookup(m.Name, dc.Name)
			if !ok {
				continue
			}
			g := calib.Grid{Model: m, Class: dc, Devices: *devices, Noise: *noise, Seed: *seed}
			samples, err := g.Measure()
			if err != nil {
				return err
			}
			topo, err := g.Topology()
			if err != nil {
				return err
			}
			mstate := costmodel.Profile(m, topo).MStateBytes
			res, err := calib.CheckEntry(entry, topo, mstate, samples)
			if err != nil {
				return err
			}
			checked++
			if res.MinR2() < worst {
				worst = res.MinR2()
			}
			status := "ok"
			if res.MinR2() < *minR2 {
				status = "FAIL"
			}
			fmt.Printf("check %s on %dx%s: %d samples, R² compute %.5f comm %.5f mem %.5f [%s]\n",
				m.Name, *devices, dc.Name, res.Samples,
				res.ComputeR2, res.CommR2, res.MemR2, status)
		}
	}
	if checked == 0 {
		return fmt.Errorf("%s has no entries for the requested model/class selection", *calPath)
	}
	if worst < *minR2 {
		return fmt.Errorf("residual gate failed: min R² %.5f < %.5f", worst, *minR2)
	}
	fmt.Printf("%s: %d entries checked, min R² %.5f ≥ %.2f\n", file.Tag(), checked, worst, *minR2)
	return nil
}

func runSensitivity(args []string) error {
	fs := flag.NewFlagSet("sensitivity", flag.ExitOnError)
	quick := fs.Bool("quick", false, "plan a 128-sequence batch instead of 512")
	seed := fs.Int64("seed", 42, "batch sampling seed")
	devices := fs.Int("devices", 64, "fleet size (multiple of 8, or < 8 for one node)")
	jsonPath := fs.String("json", "", "also write the result as JSON to this path")
	fs.Parse(args)

	if err := cliutil.ValidateFleet(*devices, ""); err != nil {
		return err
	}
	batchSize := 512
	if *quick {
		batchSize = 128
	}
	r, err := CalibrationBench(*devices, batchSize, *seed)
	if err != nil {
		return fmt.Errorf("sensitivity: %w", err)
	}
	fmt.Println(r.Render())
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("[wrote %s]\n", *jsonPath)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: flexsp-profile <command> [flags]

commands:
  fit          sweep a measurement grid (or ingest -trace rows) and write a calibration file
  check        re-measure and gate each entry's prediction R² (exit 1 below -min-r2)
  sensitivity  self-fit accuracy plus ±10% coefficient perturbation re-plan deltas

run 'flexsp-profile <command> -h' for command flags`)
}
