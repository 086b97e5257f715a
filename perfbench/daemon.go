package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"flexsp"
	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/server"
)

// daemonElastic drives one in-process elastic daemon built with
// flexsp-serve's defaults, except that replans start immediately: the
// default 100ms debounce is a sleep that would hide the replan work. Each
// cycle plans a fresh 64-sequence batch, posts one topology event, and polls
// until the plan state catches up, so no plan races a replan. Every elastic
// daemon plans through the placed planner, even on a single-class fleet, and
// warm repair (solver.Resolve) and cold caches after each replan run only
// here.
var daemonElastic = workloadDef{
	name: "daemon-elastic",
	inputs: map[string]any{"batch_seqs": 64, "max_ctx": maxCtx, "devices": 64, "nodes": 8, "model": "GPT-7B",
		"clients": 1, "events_per_cycle": 1},
	minOps: 72,
	setup:  setupDaemon,
}

// serveDefaults mirrors flexsp-serve's flag defaults.
func serveDefaults(elastic bool) flexsp.ServeConfig {
	return flexsp.ServeConfig{
		QueueLimit:       64,
		TenantLimit:      16,
		BatchWindow:      2 * time.Millisecond,
		CacheEntries:     4096,
		CacheGranularity: 256,
		TraceEntries:     64,
		StreamLimit:      64,
		StreamTimeout:    time.Minute,
		Elastic:          elastic,
		ReplanDebounce:   100 * time.Millisecond,
	}
}

type daemonBench struct {
	srv    *server.Server
	ln     *listener
	client *http.Client
	// mirror replays every posted event, so the benchmark knows the fleet
	// each plan must be valid on without asking the daemon.
	mirror *cluster.Elastic
	spans  *spanLog
}

func setupDaemon(seed int64, traced bool) (instance, error) {
	cfg := serveDefaults(true)
	cfg.ReplanDebounce = -1
	sys, err := flexsp.NewSystem(flexsp.Config{Devices: 64, Model: costmodel.GPT7B, Serve: cfg})
	if err != nil {
		return nil, err
	}
	srv, err := sys.NewServer()
	if err != nil {
		return nil, err
	}
	b := &daemonBench{srv: srv, client: newClient()}
	var h http.Handler = srv
	if traced {
		b.spans = &spanLog{}
		h = b.spans.wrap("server", "daemon", srv)
	}
	if b.ln, err = listen(h); err != nil {
		srv.Close()
		return nil, err
	}
	if b.mirror, err = cluster.NewElastic(staticFleet); err != nil {
		b.close()
		return nil, err
	}
	warm := op{lens: newBatchSource(seed, streamWarmup, 64).next(), rid: "warm"}
	if planOp(b.client, b.ln.url, &warm); warm.err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up plan: %w", warm.err)
	}
	return b, nil
}

func (b *daemonBench) close() {
	b.ln.close()
	b.srv.Close()
	b.client.CloseIdleConnections()
}

// eventSource posts one event per cycle, rotating through a fixed
// eight-step pattern whose nodes the seed draws:
//
//	straggle a, node_up a, node_down b, node_up b,
//	straggle c, node_down d, node_up d, node_up c
//
// Every event changes the planning view, so every cycle replans; never more
// than one node is down; and half the plans land on a single-class fleet,
// half on a derated one, whatever the seed.
type eventSource struct {
	rng   *rand.Rand
	step  int
	nodes [4]int // a, b, c, d of the current pattern
}

func (e *eventSource) next(nodes int) cluster.Event {
	k := e.step % 8
	e.step++
	if k == 0 {
		for i := range e.nodes {
			e.nodes[i] = e.rng.Intn(nodes)
		}
		for e.nodes[3] == e.nodes[2] {
			e.nodes[3] = e.rng.Intn(nodes)
		}
	}
	a, b, c, d := e.nodes[0], e.nodes[1], e.nodes[2], e.nodes[3]
	return [8]cluster.Event{
		{Kind: cluster.EventStraggle, Node: a, Factor: 1.5},
		{Kind: cluster.EventNodeUp, Node: a},
		{Kind: cluster.EventNodeDown, Node: b},
		{Kind: cluster.EventNodeUp, Node: b},
		{Kind: cluster.EventStraggle, Node: c, Factor: 1.5},
		{Kind: cluster.EventNodeDown, Node: d},
		{Kind: cluster.EventNodeUp, Node: d},
		{Kind: cluster.EventNodeUp, Node: c},
	}[k]
}

// fleetCache profiles the placed cost model of a snapshot, once per version.
type fleetCache map[int64]fleetCost

func (fc fleetCache) get(s cluster.Snapshot) fleetCost {
	if f, ok := fc[s.Version]; ok {
		return f
	}
	f := placedFleet(costmodel.ProfileMixed(costmodel.GPT7B, s.Mixed))
	fc[s.Version] = f
	return f
}

func (b *daemonBench) measure(cfg runConfig) (*phase, error) {
	ph := &phase{minOps: cfg.minOps, layers: map[string]metric{}}
	src := newBatchSource(cfg.seed, streamBatches, 64)
	events := &eventSource{rng: newRand(cfg.seed, streamEvents)}
	fleets := fleetCache{}
	var postMs, replanMs []float64
	singleClass := 0
	var cycleErr error

	m0, err := daemonMetrics(b.client, b.ln.url)
	if err != nil {
		return nil, err
	}
	c0, s0, err := histogram(b.client, b.ln.url, "flexsp_replan_seconds")
	if err != nil {
		return nil, err
	}
	var prefix server.MetricsResponse
	var pc, psum float64
	mem := readMem()
	cpu0, start := cpuTime(), time.Now()
	loop(cfg.duration, cfg.minOps, func(seq int) bool {
		snap := b.mirror.Snapshot()
		o := op{seq: seq, lens: src.next(), rid: fmt.Sprintf("d%d", seq), fleet: fleets.get(snap)}
		planOp(b.client, b.ln.url, &o)
		ph.ops = append(ph.ops, o)
		if seq < cfg.minOps && snap.Straggling == 0 {
			singleClass++
		}
		if seq == cfg.minOps-1 {
			// Counters at the end of the scored prefix, before its last event.
			if prefix, cycleErr = daemonMetrics(b.client, b.ln.url); cycleErr == nil {
				pc, psum, cycleErr = histogram(b.client, b.ln.url, "flexsp_replan_seconds")
			}
			if cycleErr != nil {
				return true
			}
		}

		ev := events.next(len(snap.Health))
		var topo server.TopologyResponse
		t := time.Now()
		_, err := do(b.client, http.MethodPost, b.ln.url+"/v2/topology", "", server.TopologyRequest{Events: []cluster.Event{ev}}, &topo)
		postMs = append(postMs, millis(time.Since(t)))
		if err != nil {
			cycleErr = err
			return true
		}
		want, err := b.mirror.Apply(ev)
		if err != nil || want != topo.Version {
			cycleErr = fmt.Errorf("event %v: daemon at version %d, mirror at %d (%v)", ev, topo.Version, want, err)
			return true
		}
		t = time.Now()
		for topo.PlanVersion < want {
			time.Sleep(time.Millisecond)
			if _, err := do(b.client, http.MethodGet, b.ln.url+"/v2/topology", "", nil, &topo); err != nil {
				cycleErr = err
				return true
			}
		}
		replanMs = append(replanMs, millis(time.Since(t)))
		return false
	})
	ph.wall, ph.cpu = time.Since(start), cpuTime()-cpu0
	ph.mem = mem.since()
	if cycleErr != nil {
		return nil, cycleErr
	}

	ph.checkAll()
	ph.props = map[string]share{
		"cache_hit_microbatches": newShare(int(prefix.Cache.Hits-m0.Cache.Hits), int(prefix.Cache.Hits-m0.Cache.Hits+prefix.Cache.Misses-m0.Cache.Misses)),
		"coalesced_requests":     newShare(int(prefix.Coalesced-m0.Coalesced), int(prefix.Requests-m0.Requests)),
		"single_class_plans":     newShare(singleClass, cfg.minOps),
	}
	if b.spans == nil {
		return ph, nil
	}
	scored := float64(cfg.minOps)
	ph.commonLayers()
	ph.layers["solver.planned_per_plan"] = metric{float64(prefix.Solver.Planned-m0.Solver.Planned) / scored, "count"}
	ph.layers["solver.deduped_per_plan"] = metric{float64(prefix.Solver.Deduped-m0.Solver.Deduped) / scored, "count"}
	ph.layers["solver.cache_hit_ratio"] = metric{ph.props["cache_hit_microbatches"].Share, "ratio"}
	ph.layers["server.topology_post_ms_p50"] = metric{median(postMs), "ms"}
	ph.layers["server.replan_ms_p50"] = metric{median(replanMs), "ms"}
	ph.layers["server.replan_ms_mean"] = metric{1e3 * ratio(psum-s0, pc-c0), "ms"}
	ph.layers["server.replans"] = metric{float64(prefix.Topology.Replans - m0.Topology.Replans), "count"}
	ph.layers["server.cold_replans"] = metric{float64(prefix.Topology.ColdReplans - m0.Topology.ColdReplans), "count"}
	ph.layers["server.degraded_plans"] = metric{float64(prefix.Topology.DegradedPlans - m0.Topology.DegradedPlans), "count"}
	handler := b.spans.byRID("server POST /v2/plan")
	var handlerMs, selfMs []float64
	for _, o := range ph.ops {
		if s, ok := handler[o.rid]; ok && o.err == nil {
			handlerMs = append(handlerMs, millis(s.dur))
			selfMs = append(selfMs, millis(s.dur-o.solve))
		}
	}
	ph.layers["server.handler_ms_p50"] = metric{median(handlerMs), "ms"}
	ph.layers["server.self_ms_p50"] = metric{median(selfMs), "ms"}
	ph.layers["server.coalesced_ratio"] = metric{ph.props["coalesced_requests"].Share, "ratio"}
	ph.layers["server.rejected"] = metric{float64(prefix.Rejected - m0.Rejected), "count"}
	absentLayers(ph, fleetLayers...)
	if err := replayAlg1(ph); err != nil {
		return nil, err
	}
	if err := placedVsScalar(ph); err != nil {
		return nil, err
	}
	if err := executeServed(ph); err != nil {
		return nil, err
	}
	return ph, nil
}
