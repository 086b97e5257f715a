package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"flexsp/internal/planner"
)

// op is one plan request as its caller saw it.
type op struct {
	// seq numbers the request among its client's plans.
	seq     int
	lens    []int
	plans   []planner.MicroPlan
	est     float64
	m       int
	latency time.Duration
	// solve is the solver wall time the program reports for the plan.
	solve time.Duration
	// fleet is the cost model the plan must be valid on.
	fleet fleetCost
	// err marks a failed operation: transport error, non-2xx, a degraded
	// plan, or a failed check.
	err error
	// bytes is the response body size on wire workloads.
	bytes int
	// rid is the request ID the client sent, joining router and replica
	// spans.
	rid string
}

// phase is one measured closed loop.
type phase struct {
	ops    []op
	wall   time.Duration
	cpu    time.Duration
	minOps int
	// window is the number of consecutive plans in one window of
	// plan_p90_ms and cpu_ms_per_plan; 0 takes both over the whole run.
	window int
	// cpuMarks is the process CPU time at the start of the loop and after
	// each whole window.
	cpuMarks []time.Duration
	// layers holds the per-layer metrics of a traced phase.
	layers map[string]metric
	props  map[string]share
	mem    memStat
}

func (ph *phase) completed() int {
	n := 0
	for _, o := range ph.ops {
		if o.err == nil {
			n++
		}
	}
	return n
}

// scored reports whether o belongs to the deterministic prefix.
func (ph *phase) scored(o op) bool {
	return o.seq < ph.minOps
}

// latencies lists the caller-seen latencies, in milliseconds, of the
// successful plans sent before the seqBelow-th.
func (ph *phase) latencies(seqBelow int) []float64 {
	var out []float64
	for _, o := range ph.ops {
		if o.err == nil && o.seq < seqBelow {
			out = append(out, millis(o.latency))
		}
	}
	return out
}

// minWindows is the fewest whole windows a windowed metric takes a median
// over; shorter runs take the whole run.
const minWindows = 3

// p90 is plan_p90_ms. With a window it is the median, over the run's whole
// windows of ph.window consecutive plans, of each window's 90th-percentile
// latency, so an interruption of the shared host that slows a few seconds of
// a run moves one window's figure and not the run's.
func (ph *phase) p90() float64 {
	windows := map[int][]float64{}
	for _, o := range ph.ops {
		if o.err == nil && ph.window > 0 {
			windows[o.seq/ph.window] = append(windows[o.seq/ph.window], millis(o.latency))
		}
	}
	var p90s []float64
	for _, w := range windows {
		if len(w) == ph.window {
			p90s = append(p90s, percentile(w, 0.9))
		}
	}
	if len(p90s) < minWindows {
		return percentile(ph.latencies(math.MaxInt), 0.9)
	}
	return median(p90s)
}

// cpuPerPlan is cpu_ms_per_plan: with a window, the median over whole
// windows of each window's process CPU per plan, for the reason p90 gives.
func (ph *phase) cpuPerPlan() float64 {
	if len(ph.cpuMarks) <= minWindows {
		return millis(ph.cpu) / float64(ph.completed())
	}
	var per []float64
	for i := 1; i < len(ph.cpuMarks); i++ {
		per = append(per, millis(ph.cpuMarks[i]-ph.cpuMarks[i-1])/float64(ph.window))
	}
	return median(per)
}

// modelledIter is the mean estimated iteration time of the scored plans.
func (ph *phase) modelledIter() float64 {
	var est []float64
	for _, o := range ph.ops {
		if ph.scored(o) && o.err == nil {
			est = append(est, o.est)
		}
	}
	return mean(est)
}

func (ph *phase) result(m map[string]metric) result {
	failed := len(ph.ops) - ph.completed()
	return result{Correct: failed == 0, Attempted: len(ph.ops), Failed: failed, Metrics: m}
}

// checkAll runs checkPlan over every successful op after the measured loop.
func (ph *phase) checkAll() {
	for i := range ph.ops {
		o := &ph.ops[i]
		if o.err == nil {
			o.err = checkPlan(o.lens, o.plans, o.est, o.m, o.fleet)
		}
	}
}

// commonLayers fills the per-layer metrics every workload reports the same
// way: the solver's own wall time, micro-batch counts, response sizes and
// the process's allocation and GC work per plan.
func (ph *phase) commonLayers() {
	var solve, kb, ms []float64
	for _, o := range ph.ops {
		if o.err != nil {
			continue
		}
		solve = append(solve, millis(o.solve))
		if o.bytes > 0 {
			kb = append(kb, float64(o.bytes)/1024)
		}
		if ph.scored(o) {
			ms = append(ms, float64(o.m))
		}
	}
	plans := float64(ph.completed())
	ph.layers["solver.solve_ms_p50"] = metric{median(solve), "ms"}
	ph.layers["solver.m_mean"] = metric{mean(ms), "count"}
	ph.layers["wire.response_kb_p50"] = metric{median(kb), "KB"}
	ph.layers["process.alloc_mb_per_plan"] = metric{ratio(float64(ph.mem.allocBytes)/(1<<20), plans), "MB"}
	ph.layers["process.gc_per_plan"] = metric{ratio(float64(ph.mem.gcs), plans), "count"}
}

// memStat counts the process's allocated bytes and completed GC cycles.
type memStat struct {
	allocBytes uint64
	gcs        uint32
}

func readMem() memStat {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memStat{allocBytes: ms.TotalAlloc, gcs: ms.NumGC}
}

// since is the allocation and GC work done after m was read.
func (m memStat) since() memStat {
	now := readMem()
	return memStat{allocBytes: now.allocBytes - m.allocBytes, gcs: now.gcs - m.gcs}
}

// loop runs a closed-loop client until d has passed and it has completed at
// least want plans; step performs plan number seq and reports whether the
// loop should stop early (a failure the loop cannot continue past).
func loop(d time.Duration, want int, step func(seq int) bool) {
	start := time.Now()
	for seq := 0; seq < want || time.Since(start) < d; seq++ {
		if step(seq) {
			return
		}
	}
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the code under test: the VCS revision stamped into the
// binary when it was built inside a repository, otherwise a digest of the
// Go sources and module files below the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		buf, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(buf)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
