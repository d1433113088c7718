package netlist

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tech"
)

// randomNetwork builds a pseudo-random but structurally valid network.
func randomNetwork(seed uint64, p *tech.Params) *Network {
	s := (seed+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9 | 1
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	nw := New(fmt.Sprintf("rand-%d", seed), p)
	nNodes := 3 + int(next()%10)
	nodes := []*Node{nw.Vdd(), nw.GND()}
	for i := 0; i < nNodes; i++ {
		n := nw.Node(fmt.Sprintf("n%d", i))
		nodes = append(nodes, n)
		switch next() % 5 {
		case 0:
			nw.MarkInput(n)
		case 1:
			nw.MarkOutput(n)
		case 2:
			n.Precharged = true
		}
		if next()%2 == 0 {
			nw.AddCap(n, float64(next()%500)*1e-15)
		}
	}
	nTrans := 1 + int(next()%15)
	for i := 0; i < nTrans; i++ {
		g := nodes[2+int(next()%uint64(nNodes))] // gates on signal nodes
		a := nodes[int(next()%uint64(len(nodes)))]
		b := nodes[int(next()%uint64(len(nodes)))]
		// Avoid rail-to-rail shorts, which Check rejects.
		if (a.Kind == KindVdd && b.Kind == KindGnd) || (a.Kind == KindGnd && b.Kind == KindVdd) {
			b = nodes[2]
		}
		d := tech.NEnh
		switch next() % 3 {
		case 1:
			d = tech.NDep
		case 2:
			if p.HasPChannel() {
				d = tech.PEnh
			}
		}
		// Geometry in whole centimicrons so the .sim round trip (which
		// prints integers) is exact.
		w := float64(2+next()%20) * 1e-6
		l := float64(2+next()%8) * 1e-6
		tr := nw.AddTrans(d, g, a, b, w, l)
		tr.Flow = Flow(next() % 4)
	}
	return nw
}

func TestSimRoundTripProperty(t *testing.T) {
	p := tech.CMOS3()
	err := quick.Check(func(seed uint64) bool {
		nw := randomNetwork(seed, p)
		if err := nw.Check(); err != nil {
			t.Logf("seed %d: generator produced invalid network: %v", seed, err)
			return false
		}
		var sb strings.Builder
		if err := WriteSim(&sb, nw); err != nil {
			return false
		}
		back, err := ReadSimParallel("back", p, strings.NewReader(sb.String()), 1)
		if err != nil {
			t.Logf("seed %d: reparse failed: %v\n%s", seed, err, sb.String())
			return false
		}
		if err := back.Check(); err != nil {
			return false
		}
		if len(back.Trans) != len(nw.Trans) {
			return false
		}
		for i, tr := range nw.Trans {
			bt := back.Trans[i]
			if bt.Type != tr.Type || bt.Flow != tr.Flow ||
				bt.Gate.Name != tr.Gate.Name || bt.A.Name != tr.A.Name || bt.B.Name != tr.B.Name {
				return false
			}
			if math.Abs(bt.W-tr.W) > 1e-9 || math.Abs(bt.L-tr.L) > 1e-9 {
				return false
			}
		}
		for _, n := range nw.Nodes {
			bn := back.Lookup(n.Name)
			if bn == nil {
				// A completely disconnected, unmarked node with only
				// the default capacitance produces no .sim record:
				// that information loss is inherent to the format.
				invisible := n.Degree() == 0 && n.Kind == KindNormal &&
					!n.Precharged && n.Cap <= p.CWire+1e-21
				if invisible {
					continue
				}
				return false
			}
			if bn.Kind != n.Kind || bn.Precharged != n.Precharged {
				return false
			}
			if math.Abs(bn.Cap-n.Cap) > 1e-18+1e-6*n.Cap {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func TestWriteSimStable(t *testing.T) {
	// Writing twice produces identical bytes (determinism for diffs).
	nw := randomNetwork(42, tech.NMOS4())
	var a, b strings.Builder
	if err := WriteSim(&a, nw); err != nil {
		t.Fatal(err)
	}
	if err := WriteSim(&b, nw); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("WriteSim is not deterministic")
	}
}
