package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// DeviceClass describes one GPU model: its memory budget and the effective
// (profiled, not peak) compute and interconnect rates the α-β cost model
// needs. A homogeneous Topology is one class replicated across every node; a
// MixedTopology strings several classes together, which is the normal shape
// of a production fleet (A100-40G nodes bought one year, H100 nodes the
// next).
type DeviceClass struct {
	// Name identifies the class in specs and reports (e.g. "A100-40G").
	Name string
	// Memory is per-GPU memory in bytes.
	Memory int64
	// Reserve is memory unavailable to training, in bytes.
	Reserve int64
	// EffFLOPS is the effective sustained FLOP/s for transformer kernels.
	EffFLOPS float64
	// IntraBW is the effective per-device all-to-all NVLink bandwidth, bytes/s.
	IntraBW float64
	// InterBW is the per-node NIC bandwidth, bytes/s.
	InterBW float64
}

// The built-in device classes. A100_40G reproduces the paper's testbed
// (A100Cluster is its single-class case); A100_80G doubles the memory at the
// same rates; H100 carries NVLink4 and a faster NIC on top of ~2.7× the
// effective bf16 throughput. All values are effective rates in the same
// sense as the A100 constants they generalize.
var (
	A100_40G = DeviceClass{
		Name:     "A100-40G",
		Memory:   a100MemoryBytes,
		Reserve:  a100ReserveBytes,
		EffFLOPS: a100EffFLOPS,
		IntraBW:  nvlinkEffBW,
		InterBW:  infinibandNodeBW,
	}
	A100_80G = DeviceClass{
		Name:     "A100-80G",
		Memory:   80 << 30,
		Reserve:  a100ReserveBytes,
		EffFLOPS: a100EffFLOPS,
		IntraBW:  nvlinkEffBW,
		InterBW:  infinibandNodeBW,
	}
	H100 = DeviceClass{
		Name:     "H100",
		Memory:   80 << 30,
		Reserve:  a100ReserveBytes,
		EffFLOPS: 380e12, // effective bf16 matmul+flash-attn throughput
		IntraBW:  120e9,  // effective per-GPU all-to-all NVLink4 bandwidth
		InterBW:  100e9,  // 800 Gbps NIC per node
	}
)

// Classes lists the built-in device classes.
func Classes() []DeviceClass { return []DeviceClass{A100_40G, A100_80G, H100} }

// ClassByName resolves a class name case-insensitively, accepting the plain
// GPU model as shorthand for its default memory size ("A100" → A100-40G).
func ClassByName(name string) (DeviceClass, error) {
	n := strings.ToUpper(strings.ReplaceAll(strings.TrimSpace(name), "_", "-"))
	switch n {
	case "A100", "A100-40G":
		return A100_40G, nil
	case "A100-80G":
		return A100_80G, nil
	case "H100", "H100-80G":
		return H100, nil
	}
	return DeviceClass{}, fmt.Errorf("cluster: unknown device class %q (want A100, A100-80G or H100)", name)
}

// UsableMemory is the per-device budget for model states and activations.
func (dc DeviceClass) UsableMemory() int64 { return dc.Memory - dc.Reserve }

// Validate reports whether the class is well formed.
func (dc DeviceClass) Validate() error {
	switch {
	case dc.Name == "":
		return fmt.Errorf("cluster: device class has no name")
	case dc.Memory <= dc.Reserve:
		return fmt.Errorf("cluster: class %s reserve %d exceeds memory %d", dc.Name, dc.Reserve, dc.Memory)
	case dc.EffFLOPS <= 0 || dc.IntraBW <= 0 || dc.InterBW <= 0:
		return fmt.Errorf("cluster: class %s rates must be positive", dc.Name)
	}
	return nil
}

// Cluster builds the single-class topology for the given device count, under
// the same shape rules as NewA100Cluster (whole 8-GPU nodes, or one partial
// node below 8 devices).
func (dc DeviceClass) Cluster(devices int) (Topology, error) {
	t, err := NewA100Cluster(devices)
	if err != nil {
		return Topology{}, err
	}
	t.DeviceMemory = dc.Memory
	t.MemoryReserve = dc.Reserve
	t.EffFLOPS = dc.EffFLOPS
	t.IntraBW = dc.IntraBW
	t.InterBW = dc.InterBW
	return t, nil
}

// NodeGroup is a contiguous run of identical nodes within a mixed fleet.
type NodeGroup struct {
	// Nodes is the number of machines in the run.
	Nodes int
	// DevicesPerNode is the GPU count of each machine.
	DevicesPerNode int
	// Class is the device class every GPU in the run shares.
	Class DeviceClass
}

// Devices returns the group's total device count.
func (g NodeGroup) Devices() int { return g.Nodes * g.DevicesPerNode }

// ClassCount pairs a device class with a device count, the unit of the
// MixedCluster constructor and of "mixed:32xA100,32xH100" specs.
type ClassCount struct {
	Class   DeviceClass
	Devices int
}

// MixedTopology describes a heterogeneous fleet as an ordered list of node
// groups. Devices are numbered contiguously across groups, so every
// DeviceRange used for SP-group placement addresses a well-defined slice of
// classes. All groups share one DevicesPerNode, keeping the aligned
// power-of-two placement invariants (a range of size ≤ DevicesPerNode never
// crosses a node boundary) identical to the homogeneous case.
type MixedTopology struct {
	NodeGroups []NodeGroup
}

// MixedCluster builds a heterogeneous fleet from per-class device counts, in
// order. Each count must be a whole number of 8-GPU nodes, or — for partial
// single-node toy setups — all counts must be equal powers of two below 8.
// The power-of-two node size guarantees that every aligned power-of-two
// placement slot lies within whole nodes or inside one node, so RangeView is
// total over the slots the planner can produce.
func MixedCluster(parts ...ClassCount) (MixedTopology, error) {
	if len(parts) == 0 {
		return MixedTopology{}, fmt.Errorf("cluster: mixed cluster needs at least one class")
	}
	var m MixedTopology
	perNode := 0
	for _, p := range parts {
		if err := p.Class.Validate(); err != nil {
			return MixedTopology{}, err
		}
		if p.Devices <= 0 {
			return MixedTopology{}, fmt.Errorf("cluster: class %s device count must be positive, got %d", p.Class.Name, p.Devices)
		}
		per, nodes := defaultDevPerNode, p.Devices/defaultDevPerNode
		if p.Devices < defaultDevPerNode {
			per, nodes = p.Devices, 1
		}
		if nodes*per != p.Devices {
			return MixedTopology{}, fmt.Errorf("cluster: class %s count %d is not a whole number of %d-GPU nodes", p.Class.Name, p.Devices, defaultDevPerNode)
		}
		if per&(per-1) != 0 {
			return MixedTopology{}, fmt.Errorf("cluster: class %s partial-node count %d must be a power of two", p.Class.Name, per)
		}
		if perNode == 0 {
			perNode = per
		}
		if per != perNode {
			return MixedTopology{}, fmt.Errorf("cluster: node sizes differ across classes (%d vs %d devices per node)", perNode, per)
		}
		m.NodeGroups = append(m.NodeGroups, NodeGroup{Nodes: nodes, DevicesPerNode: per, Class: p.Class})
	}
	return m, nil
}

// ParseClusterSpec parses a fleet specification of the form
// "mixed:32xA100,32xH100" (the "mixed:" prefix is optional): comma-separated
// COUNTxCLASS parts, where COUNT is a device count per class.
func ParseClusterSpec(spec string) (MixedTopology, error) {
	s := strings.TrimSpace(spec)
	s = strings.TrimPrefix(s, "mixed:")
	if s == "" {
		return MixedTopology{}, fmt.Errorf("cluster: empty cluster spec %q", spec)
	}
	var parts []ClassCount
	for _, field := range strings.Split(s, ",") {
		cnt, name, ok := strings.Cut(strings.TrimSpace(field), "x")
		if !ok {
			return MixedTopology{}, fmt.Errorf("cluster: bad spec part %q (want COUNTxCLASS, e.g. 32xA100)", field)
		}
		n, err := strconv.Atoi(strings.TrimSpace(cnt))
		if err != nil {
			return MixedTopology{}, fmt.Errorf("cluster: bad device count in %q", field)
		}
		dc, err := ClassByName(name)
		if err != nil {
			return MixedTopology{}, err
		}
		parts = append(parts, ClassCount{Class: dc, Devices: n})
	}
	return MixedCluster(parts...)
}

// String renders the fleet as a spec ("32xA100-40G+32xH100").
func (m MixedTopology) String() string {
	var b strings.Builder
	for i, g := range m.NodeGroups {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%dx%s", g.Devices(), g.Class.Name)
	}
	return b.String()
}

// NumDevices returns the total device count.
func (m MixedTopology) NumDevices() int {
	n := 0
	for _, g := range m.NodeGroups {
		n += g.Devices()
	}
	return n
}

// NumNodes returns the total node count.
func (m MixedTopology) NumNodes() int {
	n := 0
	for _, g := range m.NodeGroups {
		n += g.Nodes
	}
	return n
}

// DevicesPerNode returns the (uniform) per-node device count.
func (m MixedTopology) DevicesPerNode() int {
	if len(m.NodeGroups) == 0 {
		return 0
	}
	return m.NodeGroups[0].DevicesPerNode
}

// Validate reports whether the fleet is well formed.
func (m MixedTopology) Validate() error {
	if len(m.NodeGroups) == 0 {
		return fmt.Errorf("cluster: mixed topology has no node groups")
	}
	per := m.DevicesPerNode()
	for _, g := range m.NodeGroups {
		if g.Nodes <= 0 || g.DevicesPerNode <= 0 {
			return fmt.Errorf("cluster: non-positive node group size (%d nodes × %d devices)", g.Nodes, g.DevicesPerNode)
		}
		if g.DevicesPerNode != per {
			return fmt.Errorf("cluster: node sizes differ across groups (%d vs %d)", per, g.DevicesPerNode)
		}
		if err := g.Class.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ClassAt returns the device class of one device index.
func (m MixedTopology) ClassAt(dev int) DeviceClass {
	off := 0
	for _, g := range m.NodeGroups {
		off += g.Devices()
		if dev < off {
			return g.Class
		}
	}
	panic(fmt.Sprintf("cluster: device %d out of range (%d devices)", dev, m.NumDevices()))
}

// ClassesIn returns the distinct device classes a range spans, in fleet
// order.
func (m MixedTopology) ClassesIn(r DeviceRange) []DeviceClass {
	if r.Start < 0 || r.End() > m.NumDevices() || r.Size <= 0 {
		panic(fmt.Sprintf("cluster: range %v out of bounds (%d devices)", r, m.NumDevices()))
	}
	var out []DeviceClass
	off := 0
	for _, g := range m.NodeGroups {
		lo, hi := off, off+g.Devices()
		off = hi
		if r.Start < hi && r.End() > lo {
			out = append(out, g.Class)
		}
	}
	return out
}

// Uniform returns the homogeneous Topology of a single-class fleet, and false
// when the fleet mixes classes.
func (m MixedTopology) Uniform() (Topology, bool) {
	if len(m.NodeGroups) == 0 {
		return Topology{}, false
	}
	first := m.NodeGroups[0].Class
	for _, g := range m.NodeGroups[1:] {
		if g.Class != first {
			return Topology{}, false
		}
	}
	return Topology{
		Nodes:          m.NumNodes(),
		DevicesPerNode: m.DevicesPerNode(),
		DeviceMemory:   first.Memory,
		MemoryReserve:  first.Reserve,
		EffFLOPS:       first.EffFLOPS,
		IntraBW:        first.IntraBW,
		InterBW:        first.InterBW,
	}, true
}

// RangeView returns the bottleneck homogeneous view of one placed device
// range: the synthetic Topology a group occupying r executes against. Compute
// is paced by the slowest spanned class, memory by the class with the least
// usable memory, and bandwidth by the slowest spanned link — the group
// proceeds in lock-step, so every collective and every kernel waits for its
// slowest participant. On a single-class fleet every view prices groups
// exactly like the fleet's Uniform Topology, so where a group lands does not
// change its cost.
//
// Ranges smaller than a node keep Carve's semantics: the view shrinks
// DevicesPerNode to the range size and keeps only the range's share of the
// node NIC.
func (m MixedTopology) RangeView(r DeviceRange) (Topology, error) {
	if r.Size <= 0 || r.Start < 0 || r.End() > m.NumDevices() {
		return Topology{}, fmt.Errorf("cluster: range %v out of bounds (%d devices)", r, m.NumDevices())
	}
	classes := m.ClassesIn(r)
	bottleneck := classes[0]
	mem := classes[0]
	for _, dc := range classes[1:] {
		if dc.EffFLOPS < bottleneck.EffFLOPS {
			bottleneck.EffFLOPS = dc.EffFLOPS
		}
		if dc.IntraBW < bottleneck.IntraBW {
			bottleneck.IntraBW = dc.IntraBW
		}
		if dc.InterBW < bottleneck.InterBW {
			bottleneck.InterBW = dc.InterBW
		}
		if dc.UsableMemory() < mem.UsableMemory() {
			mem = dc
		}
	}
	per := m.DevicesPerNode()
	t := Topology{
		DeviceMemory:  mem.Memory,
		MemoryReserve: mem.Reserve,
		EffFLOPS:      bottleneck.EffFLOPS,
		IntraBW:       bottleneck.IntraBW,
		InterBW:       bottleneck.InterBW,
	}
	switch {
	case r.Size >= per:
		if r.Size%per != 0 || r.Start%per != 0 {
			return Topology{}, fmt.Errorf("cluster: range %v is not a whole number of %d-device nodes", r, per)
		}
		t.Nodes = r.Size / per
		t.DevicesPerNode = per
	default:
		if r.Start/per != (r.End()-1)/per {
			// A sub-node view models its devices as one NVLink island; a
			// range straddling a node boundary has no such island, and its
			// intra-range traffic would be priced at NVLink speed when it
			// actually crosses the NIC (the same shapes Topology.Carve
			// rejects).
			return Topology{}, fmt.Errorf("cluster: range %v crosses a %d-device node boundary", r, per)
		}
		t.Nodes = 1
		t.DevicesPerNode = r.Size
		// The node's NIC is shared with the node's other ranges, so the view
		// keeps only its devices' share (same rule as Topology.Carve).
		t.InterBW = bottleneck.InterBW * float64(r.Size) / float64(per)
	}
	return t, nil
}

// FullRange is the device range covering the whole fleet.
func (m MixedTopology) FullRange() DeviceRange {
	return DeviceRange{Start: 0, Size: m.NumDevices()}
}

// SPDegrees returns the candidate SP degrees: powers of two up to the device
// count, exactly as on a homogeneous Topology.
func (m MixedTopology) SPDegrees() []int {
	var ds []int
	for d := 1; d <= m.NumDevices(); d *= 2 {
		ds = append(ds, d)
	}
	return ds
}

// IsValidDegree reports whether d is a legal SP degree on this fleet.
func (m MixedTopology) IsValidDegree(d int) bool {
	return d >= 1 && d <= m.NumDevices() && d&(d-1) == 0
}

// AlignedSlots returns every aligned slot of the given size, ascending by
// start: the candidate placements of one degree-size SP group.
func (m MixedTopology) AlignedSlots(size int) []DeviceRange {
	if !m.IsValidDegree(size) {
		return nil
	}
	var out []DeviceRange
	for start := 0; start+size <= m.NumDevices(); start += size {
		out = append(out, DeviceRange{Start: start, Size: size})
	}
	return out
}
