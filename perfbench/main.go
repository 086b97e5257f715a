// Command perfbench is the repository's benchmark: one command that runs a
// closed-loop planning workload against the unmodified program, checks every
// plan it gets back, and prints its metrics by name and unit.
//
//	bash perfbench/run.sh --workload library-fresh --seed 1 --seconds 15 --trace 0
//
// Every workload plans GPT-7B on 64 A100-40G GPUs over batches drawn from
// the seed, rotating CommonCrawl, GitHub and Wikipedia at a 192K context.
// The three workloads put the work in different layers (see NOTES.md):
//
//	library-fresh   System.Plan + Plan.Execute on a fresh 256-sequence batch
//	daemon-elastic  an elastic daemon: plan, topology event, wait for replan
//	fleet-replay    one client replays a warm pool through the fleet router
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced phase, measured from
// outside around calls into public functions, plus the tracing overhead
// against an untraced phase on the same inputs. The lines before it are the
// environment header and the workload's property shares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// A run builds its workload at least minSetups times and until setupBudget
// has passed; setup_s is the median build time, so a few slow builds do not
// move it, and a cheap set-up is timed more often than a dear one.
const (
	minSetups   = 3
	setupBudget = 3 * time.Second
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 15, "length of the measured phase, before the scored prefix extends it")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced phase instead of end-to-end metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, duration: time.Duration(*seconds) * time.Second, minOps: w.minOps}
	var res result
	var props map[string]share
	var err error
	if *trace == 1 {
		res, props, err = tracedRun(w, cfg)
	} else {
		res, props, err = untracedRun(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	emit(map[string]any{"env": environment(w, cfg)})
	emit(map[string]any{"properties": props})
	emit(res)
	return 0
}

func emit(v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		panic("perfbench: encoding output: " + err.Error())
	}
	fmt.Println(string(buf))
}

// runConfig is what one run measures.
type runConfig struct {
	seed     int64
	duration time.Duration
	// minOps is the scored prefix: every measured phase completes at least
	// this many plans, and the deterministic metrics (modelled_iter_s,
	// per-layer counts) are taken over exactly these first plans, so they
	// repeat for a seed however fast the machine is.
	minOps int
}

// share is a property share with its base: share = count / base.
type share struct {
	Share float64 `json:"share"`
	Count int     `json:"count"`
	Base  int     `json:"base"`
}

func newShare(count, base int) share {
	return share{Share: ratio(float64(count), float64(base)), Count: count, Base: base}
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// inputs describes the input sizes for the environment header.
	inputs map[string]any
	minOps int
	// setup builds the workload and runs its fixed warm-up; traced builds
	// also wrap the program's handlers in the benchmark's spans.
	setup func(seed int64, traced bool) (instance, error)
}

// instance is one built workload, ready to measure once.
type instance interface {
	// measure runs the closed loop for cfg.duration and at least cfg.minOps
	// plans and checks what came back; a traced build also gathers the
	// per-layer metrics.
	measure(cfg runConfig) (*phase, error)
	close()
}

var workloads = map[string]workloadDef{
	"library-fresh":  libraryFresh,
	"daemon-elastic": daemonElastic,
	"fleet-replay":   fleetReplay,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// setupMedian builds the workload as often as minSetups and setupBudget
// ask, closes all but the last instance, and returns it with the median
// build time.
func setupMedian(w workloadDef, seed int64) (instance, float64, error) {
	var times []float64
	var inst instance
	for begin := time.Now(); len(times) < minSetups || time.Since(begin) < setupBudget; {
		start := time.Now()
		next, err := w.setup(seed, false)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			if inst != nil {
				inst.close()
			}
			return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
		}
		if inst != nil {
			inst.close()
		}
		inst = next
	}
	return inst, median(times), nil
}

func measureOnce(inst instance, cfg runConfig) (*phase, error) {
	defer inst.close()
	return inst.measure(cfg)
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w workloadDef, cfg runConfig) (result, map[string]share, error) {
	inst, setup, err := setupMedian(w, cfg.seed)
	if err != nil {
		return result{}, nil, err
	}
	ph, err := measureOnce(inst, cfg)
	if err != nil {
		return result{}, nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, nil, err
	}
	plans := float64(ph.completed())
	m := map[string]metric{
		"setup_s":         {setup, "s"},
		"plan_p50_ms":     {median(ph.latencies(math.MaxInt)), "ms"},
		"plan_p90_ms":     {ph.p90(), "ms"},
		"plans_per_s":     {plans / ph.wall.Seconds(), "1/s"},
		"cpu_ms_per_plan": {ph.cpuPerPlan(), "ms"},
		"rss_peak_mb":     {rss, "MB"},
		"modelled_iter_s": {ph.modelledIter(), "s"},
	}
	return ph.result(m), ph.props, nil
}

// tracedRun measures the per-layer metrics in a traced phase. An untraced
// phase first runs the first quarter of the same scored prefix from a fresh
// build; the plan_p50_ms difference over those shared inputs is the tracing
// overhead.
func tracedRun(w workloadDef, cfg runConfig) (result, map[string]share, error) {
	head := runConfig{seed: cfg.seed, minOps: cfg.minOps / 4}
	var p50 [2]float64
	var ph *phase
	for i, traced := range []bool{false, true} {
		inst, err := w.setup(cfg.seed, traced)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		pcfg := cfg
		if !traced {
			pcfg = head
		}
		if ph, err = measureOnce(inst, pcfg); err != nil {
			return result{}, nil, err
		}
		p50[i] = median(ph.latencies(head.minOps))
	}
	m := ph.layers
	m["trace.overhead_pct"] = metric{100 * ratio(p50[1]-p50[0], p50[0]), "%"}
	return ph.result(m), ph.props, nil
}

// environment is the header printed before every result.
func environment(w workloadDef, cfg runConfig) map[string]any {
	return map[string]any{
		"workload":   w.name,
		"seed":       cfg.seed,
		"seconds":    cfg.duration.Seconds(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"inputs":     w.inputs,
		"min_ops":    cfg.minOps,
	}
}
