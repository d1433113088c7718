// Berkeley .sim file format, and its writer (the reader is the chunked
// parser in parallel.go).
//
// The .sim format is the lingua franca of the Berkeley switch-level tools
// (esim, crystal, irsim, mextra). The subset implemented here:
//
//	| comment text                      comment / header line
//	| units: <n> tech: <name>           header produced by mextra
//	e <g> <s> <d> [l w [x y]]           n-channel enhancement transistor
//	n <g> <s> <d> [l w [x y]]           synonym for e
//	d <g> <s> <d> [l w [x y]]           n-channel depletion transistor
//	p <g> <s> <d> [l w [x y]]           p-channel transistor
//	r <a> <b> <ohms>                    interconnect (wire) resistor
//	C <a> <b> <cap>                     capacitor, cap in femtofarads
//	c <a> <b> <cap>                     synonym for C
//	N <node> <cap>                      node capacitance in femtofarads
//	= <node> <alias>                    net alias
//	@ in|out <node>...                  input/output markers (extension)
//	@ flow a>b|b>a|off <index>          flow hint for transistor (extension)
//	@ precharged <node>...              precharge markers (extension)
//	@ inst <path> <lo> <hi>             hierarchical stamp annotation:
//	                                    transistors [lo,hi) form instance
//	                                    <path> (extension)
//
// Geometry (l, w) is in "units" — hundredths of a micron scaled by the
// units header (mextra convention: units gives centimicrons per unit;
// absent a header, 1 unit = 1 centimicron = 1e-8 m). Capacitor values are
// femtofarads.
package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// centimicron is the base geometry unit of .sim files, in meters.
const centimicron = 1e-8

// femto converts femtofarads to farads.
const femto = 1e-15

// maxSimLine bounds one .sim line; longer lines are rejected.
const maxSimLine = 4 * 1024 * 1024

// followAliases chases the alias chain from nm to its final target. It
// reports ok=false when the chain loops: `= a b` / `= b a` is expressible
// in the format, and an unbounded walk would hang the parser. The bound is
// the alias-table size — any walk longer than that revisited a name.
func followAliases(aliases map[string]string, nm string) (final string, ok bool) {
	for steps := 0; ; steps++ {
		tgt, hit := aliases[nm]
		if !hit {
			return nm, true
		}
		if steps >= len(aliases) {
			return nm, false
		}
		nm = tgt
	}
}

// WriteSim writes the network to w in .sim format. Geometry is emitted in
// centimicrons (units: 1); explicit node capacitance is emitted as N
// records in femtofarads. Input/output/flow/precharge attributes are
// emitted as @ directive extensions so that a ReadSimParallel round trip
// preserves them.
func WriteSim(w io.Writer, nw *Network) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "| units: 1 tech: %s name: %s\n", nw.Tech.Name, nw.Name)
	for _, t := range nw.Trans {
		if t.IsWire() {
			fmt.Fprintf(bw, "r %s %s %.6g\n", t.A.Name, t.B.Name, t.ROverride)
			continue
		}
		fmt.Fprintf(bw, "%s %s %s %s %.0f %.0f\n",
			t.Type, t.Gate.Name, t.A.Name, t.B.Name,
			t.L/centimicron, t.W/centimicron)
	}
	for _, n := range nw.Nodes {
		if n.IsRail() {
			continue // rails are ideal; their capacitance is meaningless
		}
		// Emit only capacitance beyond the technology default so the
		// round trip is stable (the parser re-applies the default).
		if extra := n.Cap - nw.Tech.CWire; extra > 1e-21 {
			fmt.Fprintf(bw, "N %s %.6g\n", n.Name, extra/femto)
		}
	}
	var ins, outs, pre []string
	for _, n := range nw.Nodes {
		switch n.Kind {
		case KindInput:
			ins = append(ins, n.Name)
		case KindOutput:
			outs = append(outs, n.Name)
		}
		if n.Precharged {
			pre = append(pre, n.Name)
		}
	}
	if len(ins) > 0 {
		fmt.Fprintf(bw, "@ in %s\n", strings.Join(ins, " "))
	}
	if len(outs) > 0 {
		fmt.Fprintf(bw, "@ out %s\n", strings.Join(outs, " "))
	}
	if len(pre) > 0 {
		fmt.Fprintf(bw, "@ precharged %s\n", strings.Join(pre, " "))
	}
	for _, t := range nw.Trans {
		if t.Flow != FlowBoth {
			fmt.Fprintf(bw, "@ flow %s %d\n", t.Flow, t.Index)
		}
	}
	for _, inst := range nw.Instances {
		fmt.Fprintf(bw, "@ inst %s %d %d\n", inst.Path, inst.TransLo, inst.TransHi)
	}
	return bw.Flush()
}
