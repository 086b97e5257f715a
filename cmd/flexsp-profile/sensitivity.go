package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"flexsp/internal/calib"
	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
	"flexsp/internal/report"
	"flexsp/internal/solver"
	"flexsp/internal/workload"
)

// CalibrationBenchResult is the machine-readable calibration benchmark
// (`flexsp-profile sensitivity -json` writes it as BENCH_calibration.json).
// It closes two loops: the self-fit — fitting a noise-free simulator sweep
// must reproduce the analytic coefficients the simulator runs on — and the
// sensitivity sweep — how much plan quality degrades when each coefficient the
// planner believes is off by ±10% from the truth.
type CalibrationBenchResult struct {
	Devices int    `json:"devices"`
	Seed    int64  `json:"seed"`
	Model   string `json:"model"`
	Class   string `json:"class"`
	// Fit compares each fitted coefficient against its analytic value.
	Fit []CoeffFit `json:"fit"`
	// MaxRelErr is the worst per-coefficient relative error of the self-fit
	// (calib's TestSelfFit holds it under 0.05).
	MaxRelErr float64 `json:"max_rel_err"`
	// MinR2 is the smallest of the three fit R²s.
	MinR2 float64 `json:"min_r2"`
	// Samples is the measurement grid size behind the fit.
	Samples int `json:"samples"`
	// Sensitivity reports the re-planning outcome under each perturbed
	// coefficient.
	Sensitivity []SensitivityPoint `json:"sensitivity"`
	// MaxDeltaFrac is the worst true-cost regression across the sweep: how
	// much iteration time a ±10% coefficient error can cost.
	MaxDeltaFrac float64 `json:"max_delta_frac"`
}

// CoeffFit is one coefficient's self-fit comparison.
type CoeffFit struct {
	Name     string  `json:"name"`
	Analytic float64 `json:"analytic"`
	Fitted   float64 `json:"fitted"`
	RelErr   float64 `json:"rel_err"`
}

// SensitivityPoint is one (coefficient, ±10%) re-planning outcome: the solver
// plans believing the perturbed value, and the resulting plan is priced under
// the true coefficients. DeltaFrac is the fractional true-cost regression
// against the unperturbed plan (0 when the perturbation does not change the
// chosen plan).
type SensitivityPoint struct {
	Coeff  string  `json:"coeff"`
	Factor float64 `json:"factor"`
	// EstTime is what the perturbed planner believes its plan costs.
	EstTime float64 `json:"est_time"`
	// TrueTime is the perturbed plan priced under the true coefficients;
	// BaseTime is the unperturbed plan's true cost.
	TrueTime  float64 `json:"true_time"`
	BaseTime  float64 `json:"base_time"`
	DeltaFrac float64 `json:"delta_frac"`
	// PlanChanged reports whether the perturbation changed the chosen plan
	// (degree sequence or micro-batch count).
	PlanChanged bool `json:"plan_changed"`
}

// perturbable enumerates the fitted coefficients the sensitivity sweep
// perturbs, paired with accessors over the scalar cost model.
var perturbable = []struct {
	name  string
	get   func(costmodel.Coeffs) float64
	apply func(*costmodel.Coeffs, float64)
}{
	{"alpha1", func(c costmodel.Coeffs) float64 { return c.Alpha1 }, func(c *costmodel.Coeffs, v float64) { c.Alpha1 = v }},
	{"alpha2", func(c costmodel.Coeffs) float64 { return c.Alpha2 }, func(c *costmodel.Coeffs, v float64) { c.Alpha2 = v }},
	{"beta1", func(c costmodel.Coeffs) float64 { return c.Beta1 }, func(c *costmodel.Coeffs, v float64) { c.Beta1 = v }},
	{"a2a_bytes_per_token", func(c costmodel.Coeffs) float64 { return c.AllToAllBytesPerToken }, func(c *costmodel.Coeffs, v float64) { c.AllToAllBytesPerToken = v }},
	{"beta2", func(c costmodel.Coeffs) float64 { return c.Beta2 }, func(c *costmodel.Coeffs, v float64) { c.Beta2 = v }},
	{"m_token_bytes", func(c costmodel.Coeffs) float64 { return c.MTokenBytes }, func(c *costmodel.Coeffs, v float64) { c.MTokenBytes = v }},
}

// CalibrationBench runs the closed-loop calibration experiment: a noise-free
// self-fit of the GPT-7B/A100 coefficients against the simulator on a fleet
// of the given size, then a ±10% sensitivity sweep over one batch of
// batchSize CommonCrawl sequences drawn from seed, showing what each
// coefficient's miscalibration costs in true plan quality.
func CalibrationBench(devices, batchSize int, seed int64) (CalibrationBenchResult, error) {
	g := calib.Grid{Model: costmodel.GPT7B, Class: cluster.A100_40G, Devices: devices}
	entry, err := g.Fit()
	if err != nil {
		return CalibrationBenchResult{}, err
	}
	topo, err := g.Topology()
	if err != nil {
		return CalibrationBenchResult{}, err
	}
	truth := costmodel.Profile(costmodel.GPT7B, topo)

	res := CalibrationBenchResult{
		Devices: topo.NumDevices(),
		Seed:    seed,
		Model:   costmodel.GPT7B.Name,
		Class:   cluster.A100_40G.Name,
		Samples: entry.Provenance.Samples,
		MinR2: min(entry.Provenance.ComputeR2,
			entry.Provenance.CommR2, entry.Provenance.MemR2),
	}
	for _, c := range []CoeffFit{
		{Name: "alpha1", Analytic: truth.Alpha1, Fitted: entry.Coeffs.Alpha1},
		{Name: "alpha2", Analytic: truth.Alpha2, Fitted: entry.Coeffs.Alpha2},
		{Name: "beta1", Analytic: truth.Beta1, Fitted: entry.Coeffs.Beta1},
		{Name: "a2a_bytes_per_token", Analytic: truth.AllToAllBytesPerToken, Fitted: entry.Coeffs.A2ABytesPerToken},
		{Name: "beta2", Analytic: truth.Beta2, Fitted: entry.Coeffs.Beta2},
		{Name: "m_token_bytes", Analytic: truth.MTokenBytes, Fitted: entry.Coeffs.MTokenBytes},
	} {
		if c.Analytic != 0 {
			c.RelErr = math.Abs(c.Fitted-c.Analytic) / math.Abs(c.Analytic)
		}
		if c.RelErr > res.MaxRelErr {
			res.MaxRelErr = c.RelErr
		}
		res.Fit = append(res.Fit, c)
	}

	// Sensitivity: plan one batch believing each perturbed coefficient, then
	// price the resulting plan under the truth. The draw matches the paper
	// experiments' seeding (seed·7919 + salt), so a seed reproduces the
	// checked-in table.
	rng := rand.New(rand.NewSource(seed*7919 + 31))
	batch := workload.CommonCrawl().Batch(rng, batchSize, 192<<10)
	base, err := solver.New(planner.New(truth)).Solve(batch)
	if err != nil {
		return CalibrationBenchResult{}, fmt.Errorf("base solve: %w", err)
	}
	baseTime := planTimeUnder(truth, base.Plans)
	for _, p := range perturbable {
		for _, factor := range []float64{0.9, 1.1} {
			c := truth
			p.apply(&c, p.get(truth)*factor)
			r, err := solver.New(planner.New(c)).Solve(batch)
			if err != nil {
				return CalibrationBenchResult{}, fmt.Errorf("solve with %s ×%.1f: %w", p.name, factor, err)
			}
			pt := SensitivityPoint{
				Coeff:       p.name,
				Factor:      factor,
				EstTime:     r.Time,
				TrueTime:    planTimeUnder(truth, r.Plans),
				BaseTime:    baseTime,
				PlanChanged: !samePlanShape(base.Plans, r.Plans),
			}
			if baseTime > 0 {
				pt.DeltaFrac = (pt.TrueTime - baseTime) / baseTime
			}
			if pt.DeltaFrac > res.MaxDeltaFrac {
				res.MaxDeltaFrac = pt.DeltaFrac
			}
			res.Sensitivity = append(res.Sensitivity, pt)
		}
	}
	return res, nil
}

// planTimeUnder prices a micro-plan sequence under a cost model: the sum over
// micro-batches of the slowest group's time (the sequential gradient-
// accumulation rounds of Eq. 14), ignoring the times stamped by the planner
// that produced them.
func planTimeUnder(c costmodel.Coeffs, plans []planner.MicroPlan) float64 {
	var total float64
	for _, mp := range plans {
		var worst float64
		for _, g := range mp.Groups {
			if t := c.GroupTime(g.Lens, g.Degree); t > worst {
				worst = t
			}
		}
		total += worst
	}
	return total
}

// samePlanShape reports whether two plan sequences chose the same layout:
// equal micro-batch counts and identical group degree sequences.
func samePlanShape(a, b []planner.MicroPlan) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		da, db := a[i].Degrees(), b[i].Degrees()
		if len(da) != len(db) {
			return false
		}
		for j := range da {
			if da[j] != db[j] {
				return false
			}
		}
	}
	return true
}

// Render formats the result as tables.
func (r CalibrationBenchResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cost-model calibration (%s on %dx%s, %d grid samples, seed %d)\n",
		r.Model, r.Devices, r.Class, r.Samples, r.Seed)
	fmt.Fprintf(&b, "Self-fit: max coefficient error %.2f%%, min R² %.5f\n",
		100*r.MaxRelErr, r.MinR2)
	tbl := report.NewTable("", "coefficient", "analytic", "fitted", "rel err")
	for _, c := range r.Fit {
		tbl.Add(c.Name, fmt.Sprintf("%.4g", c.Analytic),
			fmt.Sprintf("%.4g", c.Fitted), fmt.Sprintf("%.3f%%", 100*c.RelErr))
	}
	b.WriteString(tbl.String())
	fmt.Fprintf(&b, "Sensitivity (±10%% per coefficient): worst true-cost regression %.2f%%\n",
		100*r.MaxDeltaFrac)
	st := report.NewTable("", "coefficient", "factor", "plan", "true Δ")
	for _, p := range r.Sensitivity {
		changed := "kept"
		if p.PlanChanged {
			changed = "changed"
		}
		st.Add(p.Coeff, fmt.Sprintf("×%.1f", p.Factor), changed,
			fmt.Sprintf("%+.2f%%", 100*p.DeltaFrac))
	}
	b.WriteString(st.String())
	return b.String()
}
