package main

import (
	"fmt"
	"net/http"
	"slices"
	"time"

	"flexsp"
	"flexsp/internal/costmodel"
	"flexsp/internal/fleet"
	"flexsp/internal/planner"
	"flexsp/internal/server"
)

// poolSize is the number of recurring batches fleet-replay serves, in a
// fixed order.
const poolSize = 64

// p90Passes is how many passes over the pool make one window of
// fleet-replay's plan_p90_ms and cpu_ms_per_plan (see phase.p90).
const p90Passes = 4

// fleetReplay sends plans from one closed-loop client through fleet.Router
// (flexsp-fleet defaults) to two in-process static daemons (flexsp-serve
// defaults with -elastic=false). After the set-up warms the pool, nearly
// every micro-batch is a plan-cache hit: the work is routing, proxying,
// admission, the 2ms batch window, JSON and cache retargeting, and the
// planner does almost none of it. Static replicas keep a placed-planner cold
// solve of the pool out of set-up. A second concurrent client would only add
// contention for the machine's two cores to the latency tail.
var fleetReplay = workloadDef{
	name: "fleet-replay",
	inputs: map[string]any{"batch_seqs": 64, "max_ctx": maxCtx, "devices": 64, "model": "GPT-7B",
		"clients": 1, "replicas": 2, "pool_batches": poolSize},
	minOps: 6 * poolSize,
	setup:  setupFleet,
}

type fleetBench struct {
	srvs   []*server.Server
	lns    []*listener
	rt     *fleet.Router
	rln    *listener
	client *http.Client
	pool   [][]int
	fleet  fleetCost
	spans  *spanLog
}

func setupFleet(seed int64, traced bool) (instance, error) {
	b := &fleetBench{client: newClient(), pool: newBatchSource(seed, streamBatches, 64).take(poolSize)}
	if traced {
		b.spans = &spanLog{}
	}
	var replicas []fleet.Replica
	for _, name := range []string{"a", "b"} {
		sys, err := flexsp.NewSystem(flexsp.Config{Devices: 64, Model: costmodel.GPT7B, Serve: serveDefaults(false)})
		if err != nil {
			b.close()
			return nil, err
		}
		srv, err := sys.NewServer()
		if err != nil {
			b.close()
			return nil, err
		}
		b.srvs = append(b.srvs, srv)
		b.fleet = scalarFleet(sys.Coeffs)
		var h http.Handler = srv
		if traced {
			h = b.spans.wrap("replica", name, srv)
		}
		ln, err := listen(h)
		if err != nil {
			b.close()
			return nil, err
		}
		b.lns = append(b.lns, ln)
		replicas = append(replicas, fleet.Replica{Name: name, URL: ln.url})
	}
	rt, err := fleet.New(fleet.Config{Replicas: replicas})
	if err != nil {
		b.close()
		return nil, err
	}
	b.rt = rt
	var h http.Handler = rt
	if traced {
		h = b.spans.wrap("router", "router", rt)
	}
	if b.rln, err = listen(h); err != nil {
		b.close()
		return nil, err
	}
	for i, lens := range b.pool {
		o := op{lens: lens, rid: fmt.Sprintf("warm%d", i)}
		if planOp(b.client, b.rln.url, &o); o.err != nil {
			b.close()
			return nil, fmt.Errorf("warming pool batch %d: %w", i, o.err)
		}
	}
	return b, nil
}

func (b *fleetBench) close() {
	if b.rln != nil {
		b.rln.close()
	}
	if b.rt != nil {
		b.rt.Close()
	}
	for _, ln := range b.lns {
		ln.close()
	}
	for _, s := range b.srvs {
		s.Close()
	}
	b.client.CloseIdleConnections()
}

// replicaTotals sums the replicas' /v1/metrics counters.
func (b *fleetBench) replicaTotals() (server.MetricsResponse, error) {
	var sum server.MetricsResponse
	for _, ln := range b.lns {
		m, err := daemonMetrics(b.client, ln.url)
		if err != nil {
			return sum, err
		}
		sum.Requests += m.Requests
		sum.Coalesced += m.Coalesced
		sum.Rejected += m.Rejected
		sum.Cache.Hits += m.Cache.Hits
		sum.Cache.Misses += m.Cache.Misses
		sum.Solver.Planned += m.Solver.Planned
		sum.Solver.Deduped += m.Solver.Deduped
	}
	return sum, nil
}

func (b *fleetBench) routerMetrics() (fleet.RouterMetricsResponse, error) {
	var m fleet.RouterMetricsResponse
	_, err := do(b.client, http.MethodGet, b.rln.url+"/v1/metrics", "", nil, &m)
	return m, err
}

// samePlans reports whether two plans place the same lengths the same way.
func samePlans(a, b []planner.MicroPlan) bool {
	return slices.EqualFunc(a, b, func(x, y planner.MicroPlan) bool {
		return x.Time == y.Time && slices.EqualFunc(x.Groups, y.Groups, func(g, h planner.Group) bool {
			return g.Degree == h.Degree && g.Range == h.Range && slices.Equal(g.Lens, h.Lens)
		})
	})
}

func (b *fleetBench) measure(cfg runConfig) (*phase, error) {
	ph := &phase{minOps: cfg.minOps, window: p90Passes * poolSize, layers: map[string]metric{}}
	r0, err := b.replicaTotals()
	if err != nil {
		return nil, err
	}
	f0, err := b.routerMetrics()
	if err != nil {
		return nil, err
	}
	// first holds the first plan served for each pool batch. A later plan
	// equal to it shares its storage, so what the benchmark keeps for the
	// checks after the loop does not grow the heap with the run's length.
	first := make([][]planner.MicroPlan, poolSize)
	mem := readMem()
	cpu0, start := cpuTime(), time.Now()
	ph.cpuMarks = []time.Duration{cpu0}
	// The loop stops after a whole number of passes over the pool, so every
	// pool batch is served equally often and per-plan counts are a property
	// of the pool.
	for seq := 0; seq < cfg.minOps || time.Since(start) < cfg.duration || seq%poolSize != 0; seq++ {
		o := op{seq: seq, lens: b.pool[seq%poolSize], rid: fmt.Sprintf("f%d", seq), fleet: b.fleet}
		planOp(b.client, b.rln.url, &o)
		if f := &first[seq%poolSize]; o.err == nil && *f == nil {
			*f = o.plans
		} else if o.err == nil && samePlans(*f, o.plans) {
			o.plans = *f
		}
		ph.ops = append(ph.ops, o)
		if (seq+1)%ph.window == 0 {
			ph.cpuMarks = append(ph.cpuMarks, cpuTime())
		}
	}
	ph.wall, ph.cpu = time.Since(start), cpuTime()-cpu0
	ph.mem = mem.since()
	r1, err := b.replicaTotals()
	if err != nil {
		return nil, err
	}
	f1, err := b.routerMetrics()
	if err != nil {
		return nil, err
	}

	ph.checkAll()
	scored := 0
	for _, o := range ph.ops {
		if ph.scored(o) {
			scored++
		}
	}
	ph.props = map[string]share{
		"cache_hit_microbatches": newShare(int(r1.Cache.Hits-r0.Cache.Hits), int(r1.Cache.Hits-r0.Cache.Hits+r1.Cache.Misses-r0.Cache.Misses)),
		"coalesced_requests":     newShare(int(r1.Coalesced-r0.Coalesced), int(r1.Requests-r0.Requests)),
		"single_class_plans":     newShare(scored, scored),
	}
	if b.spans == nil {
		return ph, nil
	}
	plans := float64(ph.completed())
	ph.commonLayers()
	ph.layers["solver.planned_per_plan"] = metric{ratio(float64(r1.Solver.Planned-r0.Solver.Planned), plans), "count"}
	ph.layers["solver.deduped_per_plan"] = metric{ratio(float64(r1.Solver.Deduped-r0.Solver.Deduped), plans), "count"}
	ph.layers["solver.cache_hit_ratio"] = metric{ph.props["cache_hit_microbatches"].Share, "ratio"}
	ph.layers["server.coalesced_ratio"] = metric{ph.props["coalesced_requests"].Share, "ratio"}
	ph.layers["server.rejected"] = metric{float64(r1.Rejected - r0.Rejected), "count"}
	ph.layers["fleet.failovers"] = metric{float64(f1.Failovers - f0.Failovers), "count"}
	ph.layers["fleet.spills"] = metric{float64(f1.Spills - f0.Spills), "count"}
	ph.layers["fleet.errors"] = metric{float64(f1.Errors - f0.Errors), "count"}

	replica := b.spans.byRID("replica POST /v2/plan")
	router := b.spans.byRID("router POST /v2/plan")
	var handlerMs, selfMs, routeMs, routerSelfMs []float64
	served := map[string]int{}
	for _, o := range ph.ops {
		rep, okRep := replica[o.rid]
		rt, okRt := router[o.rid]
		if o.err != nil || !okRep || !okRt {
			continue
		}
		handlerMs = append(handlerMs, millis(rep.dur))
		selfMs = append(selfMs, millis(rep.dur-o.solve))
		routeMs = append(routeMs, millis(rt.dur))
		routerSelfMs = append(routerSelfMs, millis(rt.dur-rep.dur))
		if ph.scored(o) {
			served[rep.who]++
		}
	}
	shareMax := 0
	for _, n := range served {
		shareMax = max(shareMax, n)
	}
	ph.layers["server.handler_ms_p50"] = metric{median(handlerMs), "ms"}
	ph.layers["server.self_ms_p50"] = metric{median(selfMs), "ms"}
	ph.layers["fleet.route_ms_p50"] = metric{median(routeMs), "ms"}
	ph.layers["fleet.self_ms_p50"] = metric{median(routerSelfMs), "ms"}
	ph.layers["fleet.replica_share_max"] = metric{ratio(float64(shareMax), float64(scored)), "ratio"}
	absentLayers(ph, elasticLayers...)
	if err := replayAlg1(ph); err != nil {
		return nil, err
	}
	if err := placedVsScalar(ph); err != nil {
		return nil, err
	}
	if err := executeServed(ph); err != nil {
		return nil, err
	}
	if len(handlerMs) != ph.completed() {
		return nil, fmt.Errorf("%d of %d plans have a router and replica span", len(handlerMs), ph.completed())
	}
	return ph, nil
}
