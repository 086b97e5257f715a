package cluster

import (
	"fmt"
	"sync"
)

// Health is a node's liveness state inside an Elastic fleet.
type Health int

const (
	// Healthy nodes plan and run at their class's nominal rates.
	Healthy Health = iota
	// Straggling nodes run, derated by a slowdown factor; the planner sees
	// a proportionally weaker device class.
	Straggling
	// Down nodes are removed from the planning topology entirely.
	Down
)

// String names the health state for logs and wire summaries.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Straggling:
		return "straggling"
	case Down:
		return "down"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// EventKind names a topology mutation.
type EventKind string

// Topology event kinds. Device-granularity failures (EventDeviceDown,
// EventDeviceOOM) cordon the whole node: SP groups run their devices in
// lock step, so a node with a hole in it would bottleneck any group placed
// across it — the same whole-is-as-weak-as-its-parts approximation
// RangeView applies to bandwidth.
const (
	// EventNodeDown removes a node from the planning topology.
	EventNodeDown EventKind = "node_down"
	// EventNodeUp returns a node to service at full speed (rejoin after a
	// loss, or recovery from straggling).
	EventNodeUp EventKind = "node_up"
	// EventStraggle derates a node by Factor (>= 1; 1 recovers it). On a
	// down node it acts as a rejoin-with-derate.
	EventStraggle EventKind = "straggle"
	// EventDeviceDown cordons the node owning Device.
	EventDeviceDown EventKind = "device_down"
	// EventDeviceOOM cordons the node owning Device after an OOM kill.
	EventDeviceOOM EventKind = "device_oom"
	// EventNodeJoin appends Count fresh nodes of class Class to the fleet.
	EventNodeJoin EventKind = "node_join"
)

// Event is one topology mutation, JSON-encodable as posted to the daemon's
// POST /v2/topology endpoint. Which fields matter depends on Kind: Node for
// node_down/node_up/straggle, Device for device_down/device_oom, Factor for
// straggle, Class and Count for node_join.
type Event struct {
	Kind   EventKind `json:"kind"`
	Node   int       `json:"node,omitempty"`
	Device int       `json:"device,omitempty"`
	Factor float64   `json:"factor,omitempty"`
	Class  string    `json:"class,omitempty"`
	Count  int       `json:"count,omitempty"`
}

// String renders the event for logs.
func (e Event) String() string {
	switch e.Kind {
	case EventStraggle:
		return fmt.Sprintf("%s(node %d, %.3gx)", e.Kind, e.Node, e.Factor)
	case EventDeviceDown, EventDeviceOOM:
		return fmt.Sprintf("%s(device %d)", e.Kind, e.Device)
	case EventNodeJoin:
		return fmt.Sprintf("%s(%dx%s)", e.Kind, e.Count, e.Class)
	default:
		return fmt.Sprintf("%s(node %d)", e.Kind, e.Node)
	}
}

// nodeState is one physical node's live state.
type nodeState struct {
	class  DeviceClass
	health Health
	factor float64 // straggler slowdown, >= 1; meaningful while Straggling
}

// MaxDevices caps an Elastic fleet's size, down nodes included: node_join
// events that would grow the fleet past it are rejected before anything is
// allocated.
const MaxDevices = 1 << 16

// Elastic is a mutable topology: a MixedTopology whose nodes can leave,
// rejoin, straggle, and be joined by new hardware at runtime. Planners never
// read it directly — they take a versioned Snapshot, a consistent immutable
// view, so a plan is always internally coherent even while events keep
// arriving. All methods are safe for concurrent use.
type Elastic struct {
	mu      sync.RWMutex
	per     int // devices per node, uniform across the fleet
	nodes   []nodeState
	version int64
	events  int64
	notify  chan struct{}
}

// NewElastic wraps a validated MixedTopology as the version-0 state of a
// live fleet. Node identities are the flattened node indices of m, in order;
// nodes appended later by node_join events get fresh indices at the end.
func NewElastic(m MixedTopology) (*Elastic, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e := &Elastic{per: m.DevicesPerNode(), notify: make(chan struct{}, 1)}
	for _, g := range m.NodeGroups {
		for i := 0; i < g.Nodes; i++ {
			e.nodes = append(e.nodes, nodeState{class: g.Class, health: Healthy, factor: 1})
		}
	}
	return e, nil
}

// Apply validates and applies a batch of events atomically: either all apply
// under one version bump, or none do. Listeners on Notify are woken once per
// successful Apply.
func (e *Elastic) Apply(evs ...Event) (int64, error) {
	if len(evs) == 0 {
		return e.Version(), fmt.Errorf("cluster: empty event batch")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Validate the whole batch against the state it will apply to before
	// mutating anything. node_join grows the fleet mid-batch, so track the
	// projected node count for bounds checks on later events.
	n := len(e.nodes)
	for _, ev := range evs {
		switch ev.Kind {
		case EventNodeDown, EventNodeUp:
			if ev.Node < 0 || ev.Node >= n {
				return e.version, fmt.Errorf("cluster: %s: node %d out of range [0,%d)", ev.Kind, ev.Node, n)
			}
		case EventStraggle:
			if ev.Node < 0 || ev.Node >= n {
				return e.version, fmt.Errorf("cluster: %s: node %d out of range [0,%d)", ev.Kind, ev.Node, n)
			}
			if ev.Factor < 1 {
				return e.version, fmt.Errorf("cluster: %s: factor %.3g must be >= 1", ev.Kind, ev.Factor)
			}
		case EventDeviceDown, EventDeviceOOM:
			if ev.Device < 0 || ev.Device >= n*e.per {
				return e.version, fmt.Errorf("cluster: %s: device %d out of range [0,%d)", ev.Kind, ev.Device, n*e.per)
			}
		case EventNodeJoin:
			if _, err := ClassByName(ev.Class); err != nil {
				return e.version, fmt.Errorf("cluster: %s: %w", ev.Kind, err)
			}
			if ev.Count <= 0 {
				return e.version, fmt.Errorf("cluster: %s: count %d must be positive", ev.Kind, ev.Count)
			}
			// Compare with the headroom rather than summing, so no count
			// can overflow n or allocate past the cap.
			if room := (MaxDevices - n*e.per) / e.per; ev.Count > room {
				return e.version, fmt.Errorf("cluster: %s: count %d would grow the fleet past %d devices",
					ev.Kind, ev.Count, MaxDevices)
			}
			n += ev.Count
		default:
			return e.version, fmt.Errorf("cluster: unknown event kind %q", ev.Kind)
		}
	}
	for _, ev := range evs {
		switch ev.Kind {
		case EventNodeDown:
			e.nodes[ev.Node].health = Down
		case EventNodeUp:
			e.nodes[ev.Node] = nodeState{class: e.nodes[ev.Node].class, health: Healthy, factor: 1}
		case EventStraggle:
			if ev.Factor == 1 {
				e.nodes[ev.Node] = nodeState{class: e.nodes[ev.Node].class, health: Healthy, factor: 1}
			} else {
				e.nodes[ev.Node] = nodeState{class: e.nodes[ev.Node].class, health: Straggling, factor: ev.Factor}
			}
		case EventDeviceDown, EventDeviceOOM:
			e.nodes[ev.Device/e.per].health = Down
		case EventNodeJoin:
			dc, _ := ClassByName(ev.Class)
			for i := 0; i < ev.Count; i++ {
				e.nodes = append(e.nodes, nodeState{class: dc, health: Healthy, factor: 1})
			}
		}
	}
	e.version++
	e.events += int64(len(evs))
	select {
	case e.notify <- struct{}{}:
	default:
	}
	return e.version, nil
}

// Version returns the current topology version; it increments once per
// successful Apply.
func (e *Elastic) Version() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.version
}

// Events returns the total number of events applied.
func (e *Elastic) Events() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.events
}

// Notify returns a channel that receives (with capacity one, coalescing
// bursts) after every successful Apply — the replan loop's wake-up signal.
func (e *Elastic) Notify() <-chan struct{} { return e.notify }

// Snapshot is an immutable, versioned view of an Elastic fleet: the live
// planning topology (down nodes removed, stragglers derated) plus the
// physical-node bookkeeping that SameView compares.
type Snapshot struct {
	// Version is the Elastic version this view was taken at.
	Version int64
	// Per is the uniform devices-per-node count.
	Per int
	// Mixed is the planning topology over live nodes only. Straggling
	// nodes appear as a derated class (rates divided by the slowdown
	// factor, name annotated "~2x") so class equality detects the change.
	// With every node down it has no node groups and fails Validate.
	Mixed MixedTopology
	// Nodes maps planning node index -> physical node index.
	Nodes []int
	// Classes is the effective class per planning node, parallel to Nodes.
	Classes []DeviceClass
	// Health records every physical node's state (including down nodes),
	// so fault injectors can work purely off snapshots.
	Health []Health
	// Down and Straggling count physical nodes in those states.
	Down       int
	Straggling int
}

// Snapshot returns a consistent immutable view of the current state.
func (e *Elastic) Snapshot() Snapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := Snapshot{
		Version: e.version,
		Per:     e.per,
		Health:  make([]Health, len(e.nodes)),
	}
	for phys, n := range e.nodes {
		s.Health[phys] = n.health
		switch n.health {
		case Down:
			s.Down++
			continue
		case Straggling:
			s.Straggling++
		}
		c := effectiveClass(n)
		s.Nodes = append(s.Nodes, phys)
		s.Classes = append(s.Classes, c)
		if k := len(s.Mixed.NodeGroups); k > 0 && s.Mixed.NodeGroups[k-1].Class == c {
			s.Mixed.NodeGroups[k-1].Nodes++
		} else {
			s.Mixed.NodeGroups = append(s.Mixed.NodeGroups, NodeGroup{Nodes: 1, DevicesPerNode: e.per, Class: c})
		}
	}
	return s
}

// effectiveClass derates a straggling node's class: compute and bandwidth
// scale down by the slowdown factor, memory is unaffected. The annotated
// name makes derated classes unequal to their nominal class, which is what
// SameView keys on.
func effectiveClass(n nodeState) DeviceClass {
	if n.health != Straggling || n.factor == 1 {
		return n.class
	}
	c := n.class
	c.Name = fmt.Sprintf("%s~%.3gx", c.Name, n.factor)
	c.EffFLOPS /= n.factor
	c.IntraBW /= n.factor
	c.InterBW /= n.factor
	return c
}

// NumDevices returns the live (planning) device count.
func (s Snapshot) NumDevices() int { return len(s.Nodes) * s.Per }

// SameView reports whether two snapshots present the identical planning
// view: same node granularity, same physical nodes in the same order, each
// with the same effective class. Versions may differ — events that cancel
// out (a node flapping down and back up between snapshots) still compare
// equal, which is what lets the replan loop skip no-op replans.
func SameView(a, b Snapshot) bool {
	if a.Per != b.Per || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] || a.Classes[i] != b.Classes[i] {
			return false
		}
	}
	return true
}
