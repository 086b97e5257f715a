package main

import (
	"slices"
	"testing"
	"time"
)

// repeatable lists the per-layer counts that must repeat exactly for a
// seed: they count work fixed by the inputs. Left out, because the program
// makes them follow timing: process.gc_per_plan follows the garbage
// collector's pacing, and the solver deduplicates an identical micro-batch
// of two trials only while the first plan of it is still in flight. That
// moves solver.deduped_per_plan everywhere, solver.planned_per_plan where
// there is no plan cache (library-fresh; planned plus deduped still
// repeats), and solver.cache_hit_ratio where waiters occur (a waiter's
// first lookup counts as a miss).
var repeatable = []string{
	"solver.m_mean",
	"server.replans", "server.cold_replans", "server.degraded_plans",
	"server.coalesced_ratio", "server.rejected",
	"fleet.failovers", "fleet.spills", "fleet.errors", "fleet.replica_share_max",
}

// tracedPhase builds a workload and measures one short traced phase.
func tracedPhase(t *testing.T, w workloadDef, seed int64) *phase {
	t.Helper()
	inst, err := w.setup(seed, true)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := measureOnce(inst, runConfig{seed: seed, duration: 100 * time.Millisecond, minOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if failed := len(ph.ops) - ph.completed(); failed > 0 {
		t.Fatalf("%d of %d plans failed", failed, len(ph.ops))
	}
	return ph
}

// TestDeterminism runs every workload's traced phase twice with one seed and
// once with another: the same seed must give the same modelled iteration
// time and per-layer counts, another seed other batches.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b := tracedPhase(t, w, 5), tracedPhase(t, w, 5)
			if a.modelledIter() != b.modelledIter() {
				t.Errorf("modelled_iter_s %v then %v for one seed", a.modelledIter(), b.modelledIter())
			}
			for _, k := range repeatable {
				if a.layers[k] != b.layers[k] {
					t.Errorf("%s %v then %v for one seed", k, a.layers[k].Value, b.layers[k].Value)
				}
			}
			handedOn := func(ph *phase) float64 {
				v := ph.layers["solver.planned_per_plan"].Value
				if name == "library-fresh" {
					v += ph.layers["solver.deduped_per_plan"].Value
				}
				return v
			}
			if handedOn(a) != handedOn(b) {
				t.Errorf("micro-batches planned per plan %v then %v for one seed", handedOn(a), handedOn(b))
			}
			c := tracedPhase(t, w, 6)
			if slices.Equal(a.ops[0].lens, c.ops[0].lens) {
				t.Errorf("seeds 5 and 6 drew the same first batch")
			}
		})
	}
}
