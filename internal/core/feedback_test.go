package core

import (
	"strings"
	"testing"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/stage"
	"repro/internal/tech"
)

// ringNetwork is the enabled NAND ring oscillator (r0 = NAND(en, r2),
// r1 = ¬r0, r2 = ¬r1): a real combinational loop with no worst-case
// arrival.
func ringNetwork(p *tech.Params) *netlist.Network {
	l := gen.NewLib("ring", p)
	en := l.NW.Node("en")
	l.NW.MarkInput(en)
	r0, r1, r2 := l.NW.Node("r0"), l.NW.Node("r1"), l.NW.Node("r2")
	l.Nand(r0, en, r2)
	l.Inverter(r0, r1, 1)
	l.Inverter(r1, r2, 1)
	return l.NW
}

// TestFeedbackGuardScopedToLoops: on the E6 chip, whose only loops are
// the register cells the directives break, the guard constant cannot
// change the answer — it used to cut acyclic reconvergent logic and
// report 4.90 µs at 10 rounds and 9.03 µs at 50 instead of 12.444 µs.
func TestFeedbackGuardScopedToLoops(t *testing.T) {
	if testing.Short() {
		t.Skip("three whole-chip analyses")
	}
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	nw, err := gen.Chip(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	fix, lb := gen.ChipDirectives(32)
	var want float64
	var wantPath string
	for _, guard := range []int{10, 50, 150} {
		a := buildAnalyzer(t, nw, m, fix, lb, Options{Workers: 1, MaxEventsPerNode: guard})
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		if len(a.Unbounded) != 0 {
			t.Errorf("guard %d: %d unbounded nodes on a loop-free chip", guard, len(a.Unbounded))
		}
		ev, path := a.MaxArrival()
		var hops []string
		for _, h := range path.Hops {
			hops = append(hops, h.Node.Name+"/"+h.Tr.String())
		}
		if guard == 10 {
			want, wantPath = ev.T, strings.Join(hops, " ")
		} else if ev.T != want || strings.Join(hops, " ") != wantPath {
			t.Errorf("guard %d: critical arrival %.6g ns over %d hops, guard 10 gave %.6g ns over another path",
				guard, ev.T*1e9, len(hops), want*1e9)
		}
	}
	if want < 12.4e-6 || want > 12.5e-6 {
		t.Errorf("critical arrival %.6g ns, want about 12444 ns", want*1e9)
	}
}

// stageGraph is the (node, transition) graph the drain can follow,
// read straight from the analyzer's stage database: vertex 2*node+tr, an
// edge per stage a popped event of that vertex would evaluate.
func stageGraph(a *Analyzer) (start, adj []int32) {
	nw := a.Net
	start = make([]int32, 2*len(nw.Nodes)+1)
	for i, nd := range nw.Nodes {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			v := 2*i + int(tr)
			start[v] = int32(len(adj))
			if nd.IsRail() || a.loopBreak[a.row(i)] {
				continue
			}
			var stages []*stage.Stage
			for _, t := range nd.Gates {
				if t.AlwaysOn() {
					continue
				}
				if (tr == tech.Rise) == (t.ConductsOn() == 1) {
					s, _ := a.db.TurnOn(t)
					stages = append(stages, s...)
				} else {
					s, _ := a.db.TurnOff(t)
					stages = append(stages, s...)
				}
			}
			if nd.Kind == netlist.KindInput {
				s, _ := a.db.From(nd, tr)
				stages = append(stages, s...)
			}
			for _, st := range stages {
				adj = append(adj, int32(2*st.Target.Index+int(st.Transition)))
			}
		}
	}
	start[2*len(nw.Nodes)] = int32(len(adj))
	return start, adj
}

// requireFeedbackConservative checks the structural feedback analysis
// against the finished analysis a: every cycle of the stage-level graph
// lies inside one structural loop, and the guard fired on loop members
// only.
func requireFeedbackConservative(t *testing.T, label string, a *Analyzer) {
	t.Helper()
	start, adj := stageGraph(a)
	comp, ncomp := tarjan(start, adj)
	size := make([]int, ncomp)
	for _, c := range comp {
		size[c]++
	}
	loopOf := make([]int32, ncomp) // stage SCC → structural loop + 1
	for v, c := range comp {
		self := false
		for _, w := range adj[start[v]:start[v+1]] {
			self = self || int(w) == v
		}
		if size[c] < 2 && !self {
			continue
		}
		node := v / 2
		if a.fb.sccOf[node] < 0 {
			t.Fatalf("%s: %s lies on a stage-level cycle but on no structural loop",
				label, a.Net.Nodes[node].Name)
		}
		k := a.fb.sccOf[node] + 1
		if loopOf[c] == 0 {
			loopOf[c] = k
		} else if loopOf[c] != k {
			t.Fatalf("%s: one stage-level cycle spans two structural loops (at %s)",
				label, a.Net.Nodes[node].Name)
		}
	}
	for _, n := range a.Unbounded {
		if a.fb.sccOf[n.Index] < 0 {
			t.Fatalf("%s: guard fired on %s, which lies on no structural loop", label, n.Name)
		}
	}
}

// feedbackFuzzSpecs are the small gen families FuzzFeedbackSCC draws from:
// combinational logic, pass networks, precharged and dynamic structures,
// and the static register cells whose cross-coupled loops are real.
var feedbackFuzzSpecs = []string{
	"invchain:4,1", "fanout:3", "passchain:4", "superbuffer", "bus:3",
	"ripple:2", "manchester:3", "barrel:2", "decoder:2", "alu:2",
	"regfile:2,2", "polywire:3", "shiftreg:3", "arraymul:2",
	"carrysel:4", "pla:3,4,2", "datapath:4",
}

// FuzzFeedbackSCC checks that the structural feedback graph is a
// conservative stand-in for the drain's own dependency graph, on small
// circuits from the gen families (plus the ring oscillator) under random
// loop-break subsets and an optional extra random device — the shape of
// edit that once exposed an input gating its own channel.
func FuzzFeedbackSCC(f *testing.F) {
	for sel := range len(feedbackFuzzSpecs) + 1 {
		f.Add(uint8(sel), uint64(sel), uint16(0), uint8(3))
	}
	f.Add(uint8(9), uint64(0xfeed), uint16(0x4321), uint8(2))
	f.Add(uint8(12), uint64(7), uint16(0x0909), uint8(4))
	p := tech.NMOS4()
	m := delay.NewSlope(delay.AnalyticTables(p))
	f.Fuzz(func(t *testing.T, sel uint8, lbSeed uint64, extra uint16, guard uint8) {
		var nw *netlist.Network
		if k := int(sel) % (len(feedbackFuzzSpecs) + 1); k == len(feedbackFuzzSpecs) {
			nw = ringNetwork(p)
		} else {
			var err error
			if nw, err = gen.Build(feedbackFuzzSpecs[k], p); err != nil {
				t.Fatal(err)
			}
		}
		pick := func(x uint64) *netlist.Node { return nw.Nodes[x%uint64(len(nw.Nodes))] }
		if extra != 0 {
			g, a, b := pick(uint64(extra)), pick(uint64(extra>>5)), pick(uint64(extra>>10))
			if !(a.IsRail() && b.IsRail()) {
				nw.AddTrans(tech.NEnh, g, a, b, 0, 0)
			}
		}
		// Each non-rail node is a loop-break with probability 1/8.
		var lb []string
		x := lbSeed | 1
		for _, n := range nw.Nodes {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if !n.IsRail() && x%8 == 0 {
				lb = append(lb, n.Name)
			}
		}
		a := buildAnalyzer(t, nw, m, nil, lb, Options{Workers: 1, MaxEventsPerNode: int(guard%16) + 1})
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		requireFeedbackConservative(t, nw.Name, a)
	})
}

// TestFeedbackSelfGatedInput: an input gating a device on its own channel
// reaches itself (the turn-on stage ends back at the input), a one-node
// loop the graph must see — an edit like this once drove an unguarded
// spin through incremental re-analysis.
func TestFeedbackSelfGatedInput(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.InverterChain(p, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := nw.Inputs()[0]
	nw.AddTrans(tech.NEnh, in, in, nw.Vdd(), 0, 0)
	a := buildAnalyzer(t, nw, delay.NewSlope(delay.AnalyticTables(p)), nil, nil,
		Options{Workers: 1, MaxEventsPerNode: 5})
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if a.fb.sccOf[in.Index] < 0 {
		t.Fatalf("self-gated input %s is not on a feedback loop", in.Name)
	}
	requireFeedbackConservative(t, "self-gated input", a)
}
