package netlist_test

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// ExampleNetwork builds an nMOS inverter by hand and prints its .sim form.
func ExampleNetwork() {
	p := tech.NMOS4()
	nw := netlist.New("inv", p)
	in, out := nw.Node("in"), nw.Node("out")
	nw.MarkInput(in)
	nw.MarkOutput(out)
	nw.AddTrans(tech.NEnh, in, out, nw.GND(), 0, 0)
	nw.AddTrans(tech.NDep, out, nw.Vdd(), out, 0, 4*p.MinL)
	if err := netlist.WriteSim(os.Stdout, nw); err != nil {
		fmt.Println(err)
	}
	// Output:
	// | units: 1 tech: nmos-4u name: inv
	// e in out GND 400 400
	// d out Vdd out 1600 400
	// @ in in
	// @ out out
}

// ExampleReadSimParallel parses a small netlist and reports its
// statistics.
func ExampleReadSimParallel() {
	src := `| units: 100 tech: nmos
e in out GND 2 2
d out Vdd out 8 2
r out far 25000
C far GND 120
@ in in
@ out far
`
	nw, err := netlist.ReadSimParallel("example", tech.NMOS4(), strings.NewReader(src), 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	st := nw.Stats()
	fmt.Printf("%d transistors (%d wires), %d nodes, %d input(s), %d output(s)\n",
		st.Trans, st.Wires, st.Nodes, st.Inputs, st.Outputs)
	// Output:
	// 3 transistors (1 wires), 5 nodes, 1 input(s), 1 output(s)
}
