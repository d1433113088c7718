package netlist

// Compact is the compiled structure-of-arrays form of a network: the
// fields the analyzer's event loop reads per event, flattened into dense
// index-keyed arrays. The pointer graph (Node/Trans structs) is the
// construction and reporting representation; the drain loop touches
// millions of events on a chip-scale run, and chasing Node→Gates→Trans
// pointers per event costs more cache misses than the arithmetic it feeds.
// A Compact is a snapshot: compile it after the network is fully built,
// and recompile after edits (generations never mutate a compiled network).
type Compact struct {
	// GateStart/GateRef are the CSR adjacency of gate connections:
	// GateRef[GateStart[n]:GateStart[n+1]] lists the gated devices of node
	// index n, each packed as trans index << 1 | conductsOn1. Always-on
	// devices (depletion loads, wires) are omitted — they do not respond
	// to their gate, which is exactly the filter the event loop wants
	// predecoded.
	GateStart []int32
	GateRef   []int32

	// TermStart/TermRef are the CSR adjacency of channel (source/drain)
	// connections: TermRef[TermStart[n]:TermStart[n+1]] lists the devices
	// whose channel touches node index n, each packed as
	// trans index << 1 | otherIsB, where otherIsB says the far terminal is
	// the device's B node. The switch-level batch simulator walks this CSR
	// to propagate strengths.
	TermStart []int32
	TermRef   []int32

	// Per-transistor columns: gate and channel terminal node INDEXES and
	// the device type (a tech.Device value), flattened so simulators never
	// chase Trans pointers in an inner loop.
	TransGate []int32
	TransA    []int32
	TransB    []int32
	TransType []uint8

	// Per-node flags the drain's improve/propagate steps test.
	IsRail     []bool
	IsInput    []bool
	Precharged []bool
	// HasTerms marks nodes with at least one channel terminal (an input
	// transition rides through conducting pass devices only if some device
	// touches it).
	HasTerms []bool
}

// PackGateRef packs a gate adjacency entry.
func PackGateRef(transIndex int, conductsOn1 bool) int32 {
	r := int32(transIndex) << 1
	if conductsOn1 {
		r |= 1
	}
	return r
}

// UnpackGateRef unpacks a gate adjacency entry into the transistor index
// and its conduction polarity (true when the device conducts while its
// gate is high).
func UnpackGateRef(r int32) (transIndex int, conductsOn1 bool) {
	return int(r >> 1), r&1 == 1
}

// PackTermRef packs a channel adjacency entry.
func PackTermRef(transIndex int, otherIsB bool) int32 {
	r := int32(transIndex) << 1
	if otherIsB {
		r |= 1
	}
	return r
}

// UnpackTermRef unpacks a channel adjacency entry into the transistor
// index and whether the far terminal is the device's B node.
func UnpackTermRef(r int32) (transIndex int, otherIsB bool) {
	return int(r >> 1), r&1 == 1
}

// Compile builds the compact form of nw, one row per node in node-index
// order.
func Compile(nw *Network) *Compact {
	c := &Compact{
		GateStart:  make([]int32, len(nw.Nodes)+1),
		IsRail:     make([]bool, len(nw.Nodes)),
		IsInput:    make([]bool, len(nw.Nodes)),
		Precharged: make([]bool, len(nw.Nodes)),
		HasTerms:   make([]bool, len(nw.Nodes)),
	}
	total := 0
	terms := 0
	for _, n := range nw.Nodes {
		for _, t := range n.Gates {
			if !t.AlwaysOn() {
				total++
			}
		}
		terms += len(n.Terms)
	}
	c.GateRef = make([]int32, 0, total)
	c.TermStart = make([]int32, len(nw.Nodes)+1)
	c.TermRef = make([]int32, 0, terms)
	for row, n := range nw.Nodes {
		c.GateStart[row] = int32(len(c.GateRef))
		for _, t := range n.Gates {
			if t.AlwaysOn() {
				continue
			}
			c.GateRef = append(c.GateRef, PackGateRef(t.Index, t.ConductsOn() == 1))
		}
		c.TermStart[row] = int32(len(c.TermRef))
		for _, t := range n.Terms {
			c.TermRef = append(c.TermRef, PackTermRef(t.Index, t.A == n))
		}
		c.IsRail[row] = n.IsRail()
		c.IsInput[row] = n.Kind == KindInput
		c.Precharged[row] = n.Precharged
		c.HasTerms[row] = len(n.Terms) > 0
	}
	c.GateStart[len(nw.Nodes)] = int32(len(c.GateRef))
	c.TermStart[len(nw.Nodes)] = int32(len(c.TermRef))
	c.TransGate = make([]int32, len(nw.Trans))
	c.TransA = make([]int32, len(nw.Trans))
	c.TransB = make([]int32, len(nw.Trans))
	c.TransType = make([]uint8, len(nw.Trans))
	for i, t := range nw.Trans {
		c.TransGate[i] = int32(t.Gate.Index)
		c.TransA[i] = int32(t.A.Index)
		c.TransB[i] = int32(t.B.Index)
		c.TransType[i] = uint8(t.Type)
	}
	return c
}

// Gates returns the packed gate refs of node index n.
func (c *Compact) Gates(n int) []int32 {
	return c.GateRef[c.GateStart[n]:c.GateStart[n+1]]
}

// Terms returns the packed channel refs of node index n.
func (c *Compact) Terms(n int) []int32 {
	return c.TermRef[c.TermStart[n]:c.TermStart[n+1]]
}
