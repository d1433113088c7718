package netlist

import (
	"math"
	"strings"
	"testing"

	"repro/internal/tech"
)

func TestRailsAndAliases(t *testing.T) {
	nw := New("t", tech.NMOS4())
	if nw.Vdd().Kind != KindVdd || nw.GND().Kind != KindGnd {
		t.Fatal("rails not created")
	}
	for _, alias := range []string{"VDD", "vdd", "Vdd"} {
		if nw.Node(alias) != nw.Vdd() {
			t.Errorf("%q should alias Vdd", alias)
		}
	}
	for _, alias := range []string{"GND", "gnd", "Gnd", "VSS", "vss", "Vss"} {
		if nw.Node(alias) != nw.GND() {
			t.Errorf("%q should alias GND", alias)
		}
	}
	if nw.Lookup("nothere") != nil {
		t.Error("Lookup should not create nodes")
	}
	n := nw.Node("x")
	if nw.Lookup("x") != n {
		t.Error("Lookup should find created node")
	}
}

func TestAddTransAdjacency(t *testing.T) {
	p := tech.NMOS4()
	nw := New("t", p)
	g, a, b := nw.Node("g"), nw.Node("a"), nw.Node("b")
	tr := nw.AddTrans(tech.NEnh, g, a, b, 0, 0)
	if tr.W != p.MinW || tr.L != p.MinL {
		t.Errorf("zero geometry should default to minima, got %g×%g", tr.W, tr.L)
	}
	if len(g.Gates) != 1 || len(a.Terms) != 1 || len(b.Terms) != 1 {
		t.Error("adjacency lists not updated")
	}
	if tr.Other(a) != b || tr.Other(b) != a || tr.Other(g) != nil {
		t.Error("Other terminal lookup wrong")
	}
	if err := nw.Check(); err != nil {
		t.Errorf("valid network rejected: %v", err)
	}
}

func TestCheckCatchesSupplyShort(t *testing.T) {
	nw := New("t", tech.NMOS4())
	g := nw.Node("g")
	nw.AddTrans(tech.NEnh, g, nw.Vdd(), nw.GND(), 0, 0)
	if err := nw.Check(); err == nil {
		t.Error("Vdd-GND channel short should be caught")
	}
}

func TestCheckCatchesPChannelInNMOS(t *testing.T) {
	nw := New("t", tech.NMOS4())
	g, a, b := nw.Node("g"), nw.Node("a"), nw.Node("b")
	nw.AddTrans(tech.PEnh, g, a, b, 0, 0)
	if err := nw.Check(); err == nil {
		t.Error("p-channel in nMOS technology should be caught")
	}
}

func TestNodeCapComposition(t *testing.T) {
	p := tech.NMOS4()
	nw := New("t", p)
	g, a, b := nw.Node("g"), nw.Node("a"), nw.Node("b")
	tr := nw.AddTrans(tech.NEnh, g, a, b, 0, 0)
	// Gate node: wire default + one gate cap.
	wantG := p.CWire + p.GateCap(tr.W, tr.L)
	if got := nw.NodeCap(g); math.Abs(got-wantG) > 1e-21 {
		t.Errorf("gate cap = %g, want %g", got, wantG)
	}
	// Channel node: wire default + one diffusion terminal.
	wantA := p.CWire + p.DiffCap(tr.W)
	if got := nw.NodeCap(a); math.Abs(got-wantA) > 1e-21 {
		t.Errorf("terminal cap = %g, want %g", got, wantA)
	}
	nw.AddCap(a, 10e-15)
	if got := nw.NodeCap(a); math.Abs(got-wantA-10e-15) > 1e-21 {
		t.Errorf("explicit cap not added: %g", got)
	}
}

func TestStats(t *testing.T) {
	p := tech.CMOS3()
	nw := New("t", p)
	in, out := nw.Node("in"), nw.Node("out")
	nw.MarkInput(in)
	nw.MarkOutput(out)
	nw.AddTrans(tech.NEnh, in, out, nw.GND(), 0, 0)
	nw.AddTrans(tech.PEnh, in, out, nw.Vdd(), 0, 0)
	st := nw.Stats()
	if st.Trans != 2 || st.NEnh != 1 || st.PEnh != 1 || st.Inputs != 1 || st.Outputs != 1 {
		t.Errorf("stats wrong: %+v", st)
	}
	if st.MaxFanout != 2 {
		t.Errorf("MaxFanout = %d, want 2 (input gates two devices)", st.MaxFanout)
	}
}

const sampleSim = `| units: 100 tech: nmos sample
e in out GND 2 2
d out Vdd out 8 2
C out GND 50
N out 25
= out outalias
@ in in
@ out out
@ flow a>b 0
`

func TestReadSimBasics(t *testing.T) {
	p := tech.NMOS4()
	nw, err := ReadSimParallel("sample", p, strings.NewReader(sampleSim), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	if len(nw.Trans) != 2 {
		t.Fatalf("got %d transistors, want 2", len(nw.Trans))
	}
	e := nw.Trans[0]
	if e.Type != tech.NEnh || e.Gate.Name != "in" {
		t.Errorf("first transistor wrong: %v", e)
	}
	// Geometry: 2 units × 100 × 1e-8 m = 2 µm.
	if math.Abs(e.L-2e-6) > 1e-12 || math.Abs(e.W-2e-6) > 1e-12 {
		t.Errorf("geometry = %g×%g, want 2µm×2µm", e.W, e.L)
	}
	if e.Flow != FlowAB {
		t.Errorf("flow directive not applied: %v", e.Flow)
	}
	out := nw.Lookup("out")
	// Cap: default wire + 50 fF (to rail, full) + 25 fF N record.
	want := p.CWire + 75e-15
	if math.Abs(out.Cap-want) > 1e-20 {
		t.Errorf("out cap = %g, want %g", out.Cap, want)
	}
	if out.Kind != KindOutput {
		t.Errorf("out kind = %v", out.Kind)
	}
	if nw.Lookup("in").Kind != KindInput {
		t.Error("in not marked input")
	}
	// Alias: "outalias" resolves to out (only after the = line; here the
	// alias maps later references).
	if got := nw.Lookup("outalias"); got != nil {
		t.Errorf("alias should not create a separate node, got %v", got)
	}
}

func TestReadSimCapBetweenSignals(t *testing.T) {
	p := tech.NMOS4()
	nw, err := ReadSimParallel("c", p, strings.NewReader("C a b 100\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := nw.Lookup("a"), nw.Lookup("b")
	if math.Abs(a.Cap-p.CWire-50e-15) > 1e-20 || math.Abs(b.Cap-p.CWire-50e-15) > 1e-20 {
		t.Errorf("signal-signal cap should split: a=%g b=%g", a.Cap, b.Cap)
	}
}

func TestReadSimErrors(t *testing.T) {
	p := tech.NMOS4()
	cases := []struct{ name, text string }{
		{"short transistor line", "e in out\n"},
		{"bad geometry", "e g a b x y\n"},
		{"negative geometry", "e g a b -2 2\n"},
		{"bad cap", "C a b xyz\n"},
		{"negative cap", "C a b -5\n"},
		{"unknown record", "z foo\n"},
		{"bad units", "| units: bogus tech: x\n"},
		{"bad flow index", "e g a b\n@ flow a>b 7\n"},
		{"bad flow dir", "e g a b\n@ flow sideways 0\n"},
		{"unknown directive", "@ banana x\n"},
		{"short alias", "= a\n"},
		{"short N record", "N x\n"},
	}
	for _, tc := range cases {
		if _, err := ReadSimParallel(tc.name, p, strings.NewReader(tc.text), 1); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestSimRoundTrip(t *testing.T) {
	p := tech.NMOS4()
	nw := New("rt", p)
	in, out, mid := nw.Node("in"), nw.Node("out"), nw.Node("mid")
	nw.MarkInput(in)
	nw.MarkOutput(out)
	mid.Precharged = true
	tr := nw.AddTrans(tech.NEnh, in, mid, out, 4e-6, 2e-6)
	tr.Flow = FlowBA
	nw.AddTrans(tech.NDep, out, nw.Vdd(), out, 2e-6, 8e-6)
	nw.AddCap(mid, 123e-15)

	var sb strings.Builder
	if err := WriteSim(&sb, nw); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSimParallel("rt2", p, strings.NewReader(sb.String()), 1)
	if err != nil {
		t.Fatalf("round trip parse: %v\n%s", err, sb.String())
	}
	if err := back.Check(); err != nil {
		t.Fatal(err)
	}
	if len(back.Trans) != 2 {
		t.Fatalf("round trip lost transistors: %d", len(back.Trans))
	}
	bt := back.Trans[0]
	if math.Abs(bt.W-4e-6) > 1e-11 || math.Abs(bt.L-2e-6) > 1e-11 {
		t.Errorf("geometry survived badly: %g×%g", bt.W, bt.L)
	}
	if bt.Flow != FlowBA {
		t.Errorf("flow hint lost: %v", bt.Flow)
	}
	bmid := back.Lookup("mid")
	if bmid == nil || !bmid.Precharged {
		t.Error("precharge mark lost")
	}
	if math.Abs(back.Lookup("mid").Cap-nw.Lookup("mid").Cap) > 1e-18 {
		t.Errorf("cap survived badly: %g vs %g", back.Lookup("mid").Cap, nw.Lookup("mid").Cap)
	}
	if back.Lookup("in").Kind != KindInput || back.Lookup("out").Kind != KindOutput {
		t.Error("port marks lost")
	}
}

func TestFlowSemantics(t *testing.T) {
	nw := New("f", tech.NMOS4())
	g, a, b := nw.Node("g"), nw.Node("a"), nw.Node("b")
	tr := nw.AddTrans(tech.NEnh, g, a, b, 0, 0)
	if !tr.CanFlow(a) || !tr.CanFlow(b) {
		t.Error("default flow should be bidirectional")
	}
	tr.Flow = FlowAB
	if !tr.CanFlow(a) || tr.CanFlow(b) {
		t.Error("FlowAB should allow a→b only")
	}
	tr.Flow = FlowOff
	if tr.CanFlow(a) || tr.CanFlow(b) {
		t.Error("FlowOff should block both")
	}
}

func TestConductsOn(t *testing.T) {
	nw := New("c", tech.CMOS3())
	g, a, b := nw.Node("g"), nw.Node("a"), nw.Node("b")
	n := nw.AddTrans(tech.NEnh, g, a, b, 0, 0)
	p := nw.AddTrans(tech.PEnh, g, a, b, 0, 0)
	d := nw.AddTrans(tech.NDep, g, a, b, 0, 0)
	if n.ConductsOn() != 1 || p.ConductsOn() != 0 {
		t.Error("conduction polarity wrong")
	}
	if n.AlwaysOn() || p.AlwaysOn() || !d.AlwaysOn() {
		t.Error("AlwaysOn wrong")
	}
}

func TestWireResistors(t *testing.T) {
	p := tech.NMOS4()
	nw := New("wires", p)
	a, b := nw.Node("a"), nw.Node("b")
	nw.MarkInput(a)
	w := nw.AddResistor(a, b, 12345)
	if !w.AlwaysOn() || !w.IsWire() {
		t.Error("wire should be always-on")
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	if nw.Stats().Wires != 1 {
		t.Error("wire not counted")
	}
	// Wires contribute no device capacitance.
	if got, want := nw.NodeCap(b), p.CWire; math.Abs(got-want) > 1e-21 {
		t.Errorf("wire terminal cap = %g, want bare %g", got, want)
	}
	// Round trip through .sim.
	var sb strings.Builder
	if err := WriteSim(&sb, nw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "r a b 12345") {
		t.Errorf("wire record missing:\n%s", sb.String())
	}
	back, err := ReadSimParallel("back", p, strings.NewReader(sb.String()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats().Wires != 1 || back.Trans[0].ROverride != 12345 {
		t.Errorf("wire did not survive round trip: %+v", back.Trans[0])
	}
	// Invalid wires are rejected.
	if _, err := ReadSimParallel("bad", p, strings.NewReader("r a b 0\n"), 1); err == nil {
		t.Error("zero-ohm wire should fail to parse")
	}
	if _, err := ReadSimParallel("bad", p, strings.NewReader("r a b\n"), 1); err == nil {
		t.Error("short wire record should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("AddResistor(≤0) should panic")
		}
	}()
	nw.AddResistor(a, b, -1)
}

func TestSortedNodeNames(t *testing.T) {
	nw := New("s", tech.NMOS4())
	nw.Node("zeta")
	nw.Node("alpha")
	names := nw.SortedNodeNames()
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}
