package cluster

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func testElastic(t *testing.T, parts ...ClassCount) *Elastic {
	t.Helper()
	if len(parts) == 0 {
		parts = []ClassCount{{Class: A100_40G, Devices: 32}}
	}
	m, err := MixedCluster(parts...)
	if err != nil {
		t.Fatalf("MixedCluster: %v", err)
	}
	e, err := NewElastic(m)
	if err != nil {
		t.Fatalf("NewElastic: %v", err)
	}
	return e
}

func TestElasticSnapshotRoundTrip(t *testing.T) {
	m, _ := MixedCluster(ClassCount{Class: A100_40G, Devices: 16}, ClassCount{Class: H100, Devices: 16})
	e, err := NewElastic(m)
	if err != nil {
		t.Fatalf("NewElastic: %v", err)
	}
	s := e.Snapshot()
	if s.Version != 0 || s.Per != 8 || s.NumDevices() != 32 {
		t.Fatalf("snapshot = v%d per=%d devices=%d, want v0 per=8 devices=32", s.Version, s.Per, s.NumDevices())
	}
	if s.Mixed.String() != m.String() {
		t.Fatalf("snapshot topology %s, want %s", s.Mixed.String(), m.String())
	}
	if len(s.Nodes) != 4 || s.Nodes[0] != 0 || s.Nodes[3] != 3 {
		t.Fatalf("Nodes = %v, want identity over 4 nodes", s.Nodes)
	}
}

func TestElasticNodeDownAndRejoin(t *testing.T) {
	e := testElastic(t) // 4 nodes of A100-40G
	if _, err := e.Apply(Event{Kind: EventNodeDown, Node: 1}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	s := e.Snapshot()
	if s.Version != 1 || s.Down != 1 || s.NumDevices() != 24 {
		t.Fatalf("after node_down: v%d down=%d devices=%d", s.Version, s.Down, s.NumDevices())
	}
	// Physical node 1 has no planning slot; node 2 plans as node 1.
	if got := s.Nodes; len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Nodes = %v, want [0 2 3]", got)
	}
	if _, err := e.Apply(Event{Kind: EventNodeUp, Node: 1}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	s2 := e.Snapshot()
	if s2.NumDevices() != 32 || s2.Down != 0 {
		t.Fatalf("after rejoin: devices=%d down=%d", s2.NumDevices(), s2.Down)
	}
	// The flap canceled out: the planning view matches version 0 even
	// though the version advanced.
	s0 := Snapshot{Per: 8, Nodes: []int{0, 1, 2, 3}, Classes: []DeviceClass{A100_40G, A100_40G, A100_40G, A100_40G}}
	if !SameView(s2, s0) || s2.Version != 2 {
		t.Fatalf("flap: SameView=%v version=%d", SameView(s2, s0), s2.Version)
	}
}

func TestElasticStraggleDerates(t *testing.T) {
	e := testElastic(t)
	if _, err := e.Apply(Event{Kind: EventStraggle, Node: 2, Factor: 2}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	s := e.Snapshot()
	if s.Straggling != 1 || s.NumDevices() != 32 {
		t.Fatalf("straggle: straggling=%d devices=%d", s.Straggling, s.NumDevices())
	}
	c := s.Classes[2]
	if c == A100_40G {
		t.Fatal("straggling node's class compares equal to nominal")
	}
	if c.EffFLOPS != A100_40G.EffFLOPS/2 || c.InterBW != A100_40G.InterBW/2 {
		t.Fatalf("derate: EffFLOPS=%g InterBW=%g", c.EffFLOPS, c.InterBW)
	}
	if c.Memory != A100_40G.Memory {
		t.Fatal("straggling must not change memory capacity")
	}
	// The derated node splits the fleet into three node groups.
	if len(s.Mixed.NodeGroups) != 3 {
		t.Fatalf("NodeGroups = %v", s.Mixed.NodeGroups)
	}
	// Factor 1 recovers.
	if _, err := e.Apply(Event{Kind: EventStraggle, Node: 2, Factor: 1}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if s := e.Snapshot(); s.Straggling != 0 || len(s.Mixed.NodeGroups) != 1 {
		t.Fatalf("recover: straggling=%d groups=%v", s.Straggling, s.Mixed.NodeGroups)
	}
}

func TestElasticDeviceFailureCordonsNode(t *testing.T) {
	e := testElastic(t)
	if _, err := e.Apply(Event{Kind: EventDeviceOOM, Device: 19}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	s := e.Snapshot()
	if got := s.Nodes; s.Down != 1 || len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("device_oom on device 19 should cordon node 2: down=%d nodes=%v", s.Down, got)
	}
}

func TestElasticNodeJoin(t *testing.T) {
	e := testElastic(t)
	if _, err := e.Apply(Event{Kind: EventNodeJoin, Class: "H100", Count: 2}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	s := e.Snapshot()
	if s.NumDevices() != 48 || len(s.Health) != 6 {
		t.Fatalf("join: devices=%d nodes=%d", s.NumDevices(), len(s.Health))
	}
	if s.Classes[5] != H100 {
		t.Fatalf("joined class = %v", s.Classes[5])
	}
}

func TestElasticApplyAtomicity(t *testing.T) {
	e := testElastic(t)
	_, err := e.Apply(
		Event{Kind: EventNodeDown, Node: 0},
		Event{Kind: EventNodeDown, Node: 99}, // out of range: whole batch must fail
	)
	if err == nil {
		t.Fatal("want error for out-of-range node")
	}
	if s := e.Snapshot(); s.Version != 0 || s.Down != 0 {
		t.Fatalf("failed batch mutated state: v%d down=%d", s.Version, s.Down)
	}
	// A valid batch bumps the version exactly once.
	if v, err := e.Apply(Event{Kind: EventNodeDown, Node: 0}, Event{Kind: EventStraggle, Node: 1, Factor: 3}); err != nil || v != 1 {
		t.Fatalf("batch: v=%d err=%v", v, err)
	}
	if got := e.Events(); got != 2 {
		t.Fatalf("Events = %d, want 2", got)
	}
}

func TestElasticApplyRejectsBadEvents(t *testing.T) {
	e := testElastic(t)
	before := e.Snapshot()
	for _, ev := range []Event{
		{Kind: "reboot", Node: 0},
		{Kind: EventStraggle, Node: 0, Factor: 0.5},
		{Kind: EventDeviceDown, Device: -1},
		{Kind: EventDeviceDown, Device: 32},
		{Kind: EventNodeJoin, Class: "V100", Count: 1},
		{Kind: EventNodeJoin, Class: "H100", Count: 0},
		// Past the fleet cap: rejected before anything is allocated, and
		// the count cannot overflow the projected node count.
		{Kind: EventNodeJoin, Class: "H100", Count: 1 << 40},
		{Kind: EventNodeJoin, Class: "H100", Count: math.MaxInt},
	} {
		if _, err := e.Apply(ev); err == nil {
			t.Errorf("Apply(%v): want error", ev)
		}
	}
	if _, err := e.Apply(); err == nil {
		t.Error("Apply(): want error for empty batch")
	}
	if e.Version() != 0 {
		t.Fatalf("version = %d after rejected events", e.Version())
	}
	if s := e.Snapshot(); !reflect.DeepEqual(s, before) {
		t.Fatalf("rejected events changed the snapshot:\n got %+v\nwant %+v", s, before)
	}
}

func TestElasticNodeJoinCap(t *testing.T) {
	e := testElastic(t) // 4 nodes of 8
	room := MaxDevices/8 - 4
	// Two joins that fit alone but not together fail as one batch.
	if _, err := e.Apply(Event{Kind: EventNodeJoin, Class: "H100", Count: room},
		Event{Kind: EventNodeJoin, Class: "H100", Count: 1}); err == nil {
		t.Fatal("batch past the cap: want error")
	}
	if _, err := e.Apply(Event{Kind: EventNodeJoin, Class: "H100", Count: room}); err != nil {
		t.Fatalf("join up to the cap: %v", err)
	}
	if n := len(e.Snapshot().Health) * 8; n != MaxDevices {
		t.Fatalf("fleet = %d devices, want %d", n, MaxDevices)
	}
	if _, err := e.Apply(Event{Kind: EventNodeJoin, Class: "H100", Count: 1}); err == nil {
		t.Fatal("join past a full fleet: want error")
	}
}

func TestElasticNotifyCoalesces(t *testing.T) {
	e := testElastic(t)
	for i := 0; i < 3; i++ {
		if _, err := e.Apply(Event{Kind: EventStraggle, Node: 0, Factor: float64(i + 2)}); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	select {
	case <-e.Notify():
	default:
		t.Fatal("no notification after Apply")
	}
	select {
	case <-e.Notify():
		t.Fatal("notifications did not coalesce")
	default:
	}
}

func TestElasticConcurrentApplySnapshot(t *testing.T) {
	e := testElastic(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch i % 3 {
				case 0:
					e.Apply(Event{Kind: EventNodeDown, Node: w})
				case 1:
					e.Apply(Event{Kind: EventNodeUp, Node: w})
				default:
					e.Apply(Event{Kind: EventStraggle, Node: w, Factor: 2})
				}
			}
		}(w)
	}
	var snapWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			for i := 0; i < 100; i++ {
				s := e.Snapshot()
				if s.NumDevices() > 32 || len(s.Health) != 4 {
					panic("inconsistent snapshot")
				}
			}
		}()
	}
	wg.Wait()
	snapWG.Wait()
	if got := e.Version(); got != 200 {
		t.Fatalf("version = %d, want 200", got)
	}
}
