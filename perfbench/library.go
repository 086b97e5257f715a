package main

import (
	"context"
	"fmt"
	"time"

	"flexsp"
	"flexsp/internal/costmodel"
	"flexsp/internal/solver"
)

// libraryFresh is the flexsp-train path: one caller plans and executes a
// fresh 256-sequence batch per step through System.Plan, with no plan cache.
// The scalar Alg. 1 path (blaster, bucket DP, enumerative planner) does
// nearly all the work; server, fleet and cache do none.
var libraryFresh = workloadDef{
	name:   "library-fresh",
	inputs: map[string]any{"batch_seqs": 256, "max_ctx": maxCtx, "devices": 64, "model": "GPT-7B", "clients": 1},
	minOps: 100,
	setup:  setupLibrary,
}

type libraryBench struct {
	sys    *flexsp.System
	traced bool
}

func setupLibrary(seed int64, traced bool) (instance, error) {
	sys, err := flexsp.NewSystem(flexsp.Config{Devices: 64, Model: costmodel.GPT7B})
	if err != nil {
		return nil, err
	}
	// A training job creates its communicators once at start (§5 hot
	// switching), after which Execute reproduces the plan's estimate.
	sys.WarmupGroups()
	warm := newBatchSource(seed, streamWarmup, 256).next()
	p, err := sys.Plan(context.Background(), warm, flexsp.PlanOptions{})
	if err != nil {
		return nil, fmt.Errorf("warm-up plan: %w", err)
	}
	if _, err := p.Execute(context.Background()); err != nil {
		return nil, fmt.Errorf("warm-up execute: %w", err)
	}
	return &libraryBench{sys: sys, traced: traced}, nil
}

func (b *libraryBench) close() {}

func (b *libraryBench) measure(cfg runConfig) (*phase, error) {
	ctx := context.Background()
	ph := &phase{minOps: cfg.minOps, layers: map[string]metric{}}
	src := newBatchSource(cfg.seed, streamBatches, 256)
	fleet := scalarFleet(b.sys.Coeffs)
	var execMs []float64
	execTime := map[int]float64{}
	before := b.sys.Solver.Metrics()
	var prefix solver.SolverMetrics
	mem := readMem()
	cpu0, start := cpuTime(), time.Now()
	loop(cfg.duration, cfg.minOps, func(seq int) bool {
		o := op{seq: seq, lens: src.next(), fleet: fleet}
		t := time.Now()
		p, err := b.sys.Plan(ctx, o.lens, flexsp.PlanOptions{})
		o.latency = time.Since(t)
		o.solve = o.latency
		if err != nil {
			o.err = err
		} else {
			o.plans, o.est, o.m = p.MicroPlans(), p.EstTime(), p.MicroBatches()
			t = time.Now()
			exec, err := p.Execute(ctx)
			execMs = append(execMs, millis(time.Since(t)))
			switch {
			case err != nil:
				o.err = err
			case exec.OOM:
				o.err = fmt.Errorf("plan %d runs out of memory when executed", seq)
			default:
				execTime[seq] = exec.Time
			}
		}
		ph.ops = append(ph.ops, o)
		if seq == cfg.minOps-1 {
			prefix = b.sys.Solver.Metrics()
		}
		return false
	})
	ph.wall, ph.cpu = time.Since(start), cpuTime()-cpu0
	ph.mem = mem.since()

	ph.checkAll()
	for i := range ph.ops {
		o := &ph.ops[i]
		if o.err == nil && !relEqual(execTime[o.seq], o.est) {
			o.err = fmt.Errorf("plan %d executes in %v s, estimated %v s", o.seq, execTime[o.seq], o.est)
		}
	}
	scored := float64(cfg.minOps)
	ph.props = map[string]share{
		"cache_hit_microbatches": newShare(0, 0),
		"coalesced_requests":     newShare(0, 0),
		"single_class_plans":     newShare(cfg.minOps, cfg.minOps),
	}
	if !b.traced {
		return ph, nil
	}
	ph.commonLayers()
	ph.layers["solver.planned_per_plan"] = metric{float64(prefix.Planned-before.Planned) / scored, "count"}
	ph.layers["solver.deduped_per_plan"] = metric{float64(prefix.Deduped-before.Deduped) / scored, "count"}
	ph.layers["solver.cache_hit_ratio"] = metric{0, "ratio"}
	ph.layers["sim.execute_ms_p50"] = metric{median(execMs), "ms"}
	absentLayers(ph, elasticLayers...)
	absentLayers(ph, requestLayers...)
	absentLayers(ph, fleetLayers...)
	if err := replayAlg1(ph); err != nil {
		return nil, err
	}
	if err := placedVsScalar(ph); err != nil {
		return nil, err
	}
	return ph, nil
}
