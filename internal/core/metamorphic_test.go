package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// metamorphicFamilies are the three circuit families the metamorphic
// relations run over: gate-load chains, a fan-out tree and a
// pass-transistor channel — the structures whose delay behaviour the
// models distinguish.
var metamorphicFamilies = []string{"invchain:6", "fanout:4", "passchain:6"}

// metamorphicAnalyze writes a network to .sim text, optionally transforms
// the text, re-reads it and runs the slope-model analysis — the
// follow-up half of each metamorphic relation, always going through the
// full parse-analyze pipeline so the relation covers the reader too.
func metamorphicAnalyze(t *testing.T, simText string) *Analyzer {
	t.Helper()
	p := tech.NMOS4()
	nw, err := netlist.ReadSimParallel("meta", p, strings.NewReader(simText), 0)
	if err != nil {
		t.Fatal(err)
	}
	a := buildAnalyzer(t, nw, delay.NewSlope(delay.AnalyticTables(p)), nil, nil, Options{})
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	return a
}

func simText(t *testing.T, nw *netlist.Network) string {
	t.Helper()
	var b strings.Builder
	if err := netlist.WriteSim(&b, nw); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// mapSimNames rewrites every node name in .sim text through rename,
// preserving the rails (they are structural, not labels).
func mapSimNames(text string, rename func(string) string) string {
	mapName := func(s string) string {
		if s == "Vdd" || s == "GND" {
			return s
		}
		return rename(s)
	}
	var out []string
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] == "|" || strings.HasPrefix(f[0], "|") {
			out = append(out, line)
			continue
		}
		switch f[0] {
		case "e", "d", "nenh", "ndep", "penh": // type gate a b l w
			for i := 1; i <= 3 && i < len(f); i++ {
				f[i] = mapName(f[i])
			}
		case "r": // r a b ohms
			for i := 1; i <= 2 && i < len(f); i++ {
				f[i] = mapName(f[i])
			}
		case "N": // N node fF
			f[1] = mapName(f[1])
		case "@": // node-name directives only; flow references device indexes
			if len(f) > 1 && (f[1] == "in" || f[1] == "out" || f[1] == "precharged") {
				for i := 2; i < len(f); i++ {
					f[i] = mapName(f[i])
				}
			}
		}
		out = append(out, strings.Join(f, " "))
	}
	return strings.Join(out, "\n")
}

// TestMetamorphicRenaming: node names are labels, nothing more. Renaming
// every node (preserving first-appearance order, hence node indexes)
// must leave every arrival bit-identical and every critical path
// identical up to the renaming.
func TestMetamorphicRenaming(t *testing.T) {
	p := tech.NMOS4()
	for _, spec := range metamorphicFamilies {
		t.Run(strings.ReplaceAll(spec, ":", "-"), func(t *testing.T) {
			nw, err := gen.Build(spec, p)
			if err != nil {
				t.Fatal(err)
			}
			text := simText(t, nw)
			rename := func(s string) string { return "zz_" + s + "_q" }
			base := metamorphicAnalyze(t, text)
			ren := metamorphicAnalyze(t, mapSimNames(text, rename))

			if len(base.Net.Nodes) != len(ren.Net.Nodes) {
				t.Fatalf("renaming changed node count: %d vs %d",
					len(base.Net.Nodes), len(ren.Net.Nodes))
			}
			for i, n := range base.Net.Nodes {
				rn := ren.Net.Nodes[i]
				if !n.IsRail() && rn.Name != rename(n.Name) {
					t.Fatalf("node %d: renaming reordered indexes (%s vs %s)", i, n.Name, rn.Name)
				}
				for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
					if w, g := base.Arrival(n, tr), ren.Arrival(rn, tr); !sameEvent(w, g) {
						t.Errorf("arrival %s/%s changed under renaming: %+v vs %+v", n.Name, tr, w, g)
					}
				}
			}
			wantPaths, gotPaths := base.CriticalPaths(5), ren.CriticalPaths(5)
			if len(wantPaths) != len(gotPaths) {
				t.Fatalf("critical path count changed: %d vs %d", len(wantPaths), len(gotPaths))
			}
			for i, wp := range wantPaths {
				gp := gotPaths[i]
				we, ge := wp.End(), gp.End()
				if rename(we.Node.Name) != ge.Node.Name || we.Event.T != ge.Event.T || we.Tr != ge.Tr {
					t.Errorf("critical path %d changed under renaming: %s/%s@%g vs %s/%s@%g",
						i, we.Node.Name, we.Tr, we.Event.T, ge.Node.Name, ge.Tr, ge.Event.T)
				}
			}
		})
	}
}

// TestMetamorphicSimRenaming: node names are labels to the switch-level
// engines too. Renaming every node (indexes preserved) must leave the
// scalar settle and the vectorized batch settle positionally
// bit-identical — values, sweep counts and oscillation flags — over a
// deterministic vector batch that includes released inputs. The relation
// goes through WriteSim/ReadSim, so it also covers the @-directive
// remapping (in/out/precharged markers feed the lattice's node sizes).
func TestMetamorphicSimRenaming(t *testing.T) {
	p := tech.NMOS4()
	for _, spec := range append([]string{"bus:3", "decoder:2"}, metamorphicFamilies...) {
		t.Run(strings.ReplaceAll(spec, ":", "-"), func(t *testing.T) {
			nw, err := gen.Build(spec, p)
			if err != nil {
				t.Fatal(err)
			}
			text := simText(t, nw)
			rename := func(s string) string { return "zz_" + s + "_q" }
			read := func(text string) *netlist.Network {
				rnw, err := netlist.ReadSimParallel("meta", p, strings.NewReader(text), 0)
				if err != nil {
					t.Fatal(err)
				}
				return rnw
			}
			base, ren := read(text), read(mapSimNames(text, rename))
			if len(base.Nodes) != len(ren.Nodes) {
				t.Fatalf("renaming changed node count: %d vs %d", len(base.Nodes), len(ren.Nodes))
			}
			sizes, rsizes := switchsim.NodeSizes(base), switchsim.NodeSizes(ren)
			for i := range sizes {
				if sizes[i] != rsizes[i] {
					t.Fatalf("node %d (%s): renaming changed size %s → %s",
						i, base.Nodes[i].Name, sizes[i], rsizes[i])
				}
			}

			ni := len(base.Inputs())
			vecs := make([]switchsim.Value, 0, 3*ni)
			for _, pattern := range [][]switchsim.Value{
				{switchsim.V0}, {switchsim.V1},
				{switchsim.V1, switchsim.VX, switchsim.V0},
			} {
				for i := 0; i < ni; i++ {
					vecs = append(vecs, pattern[i%len(pattern)])
				}
			}
			run := func(nw *netlist.Network) *switchsim.BatchResult {
				res, err := switchsim.NewBatch(nw).Run(vecs, nil)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want, got := run(base), run(ren)
			if want.Sweeps != got.Sweeps {
				t.Errorf("renaming changed sweep count: %d vs %d", want.Sweeps, got.Sweeps)
			}
			for v := 0; v < want.Vectors; v++ {
				if want.Osc[v] != got.Osc[v] {
					t.Errorf("vector %d: renaming changed oscillation flag", v)
				}
				for n := range want.Out[v] {
					if want.Out[v][n] != got.Out[v][n] {
						t.Errorf("vector %d: node %s = %s, renamed %s",
							v, base.Nodes[n].Name, want.Out[v][n], got.Out[v][n])
					}
				}
			}

			// Scalar engine agrees under the same renaming (first vector).
			sim, rsim := switchsim.New(base), switchsim.New(ren)
			for i, in := range base.Inputs() {
				if err := sim.SetInput(in, vecs[i]); err != nil {
					t.Fatal(err)
				}
				if err := rsim.SetInput(ren.Inputs()[i], vecs[i]); err != nil {
					t.Fatal(err)
				}
			}
			sim.Settle()
			rsim.Settle()
			for i, n := range base.Nodes {
				if w, g := sim.Value(n), rsim.Value(ren.Nodes[i]); w != g {
					t.Errorf("scalar: node %s = %s, renamed %s", n.Name, w, g)
				}
			}
		})
	}
}

// TestMetamorphicPermutation: the order transistors are listed in the
// source file is an artifact of netlist extraction. Permuting the lines
// permutes node indexes, but every per-name arrival time and slope must
// be unchanged. (Provenance may legitimately differ: equal-time ties
// break on node index, which is exactly what the permutation perturbs.)
func TestMetamorphicPermutation(t *testing.T) {
	p := tech.NMOS4()
	for _, spec := range metamorphicFamilies {
		t.Run(strings.ReplaceAll(spec, ":", "-"), func(t *testing.T) {
			nw, err := gen.Build(spec, p)
			if err != nil {
				t.Fatal(err)
			}
			text := simText(t, nw)
			base := metamorphicAnalyze(t, text)

			// Deterministic shuffle (LCG) of the device lines only;
			// directives and cap records keep their positions. Flow
			// directives reference devices by index, so they are remapped
			// through the permutation.
			var dev, rest []string
			var devOrder []int // devOrder[newIndex] = oldIndex
			for _, line := range strings.Split(text, "\n") {
				f := strings.Fields(line)
				if len(f) > 0 {
					switch f[0] {
					case "e", "d", "nenh", "ndep", "penh", "r":
						devOrder = append(devOrder, len(dev))
						dev = append(dev, line)
						continue
					}
				}
				rest = append(rest, line)
			}
			seed := uint64(0x9E3779B97F4A7C15)
			for i := len(dev) - 1; i > 0; i-- {
				seed = seed*6364136223846793005 + 1442695040888963407
				j := int(seed>>33) % (i + 1)
				dev[i], dev[j] = dev[j], dev[i]
				devOrder[i], devOrder[j] = devOrder[j], devOrder[i]
			}
			newIndex := make(map[int]int, len(devOrder))
			for ni, oi := range devOrder {
				newIndex[oi] = ni
			}
			for i, line := range rest {
				f := strings.Fields(line)
				if len(f) == 4 && f[0] == "@" && f[1] == "flow" {
					var oi int
					fmt.Sscanf(f[3], "%d", &oi)
					f[3] = fmt.Sprint(newIndex[oi])
					rest[i] = strings.Join(f, " ")
				}
			}
			perm := metamorphicAnalyze(t, strings.Join(append(dev, rest...), "\n"))

			for _, n := range base.Net.Nodes {
				pn := perm.Net.Lookup(n.Name)
				if pn == nil {
					t.Fatalf("node %s lost in permutation", n.Name)
				}
				for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
					w, g := base.Arrival(n, tr), perm.Arrival(pn, tr)
					if w.Valid != g.Valid || w.T != g.T || w.Slope != g.Slope {
						t.Errorf("arrival %s/%s changed under permutation: %+v vs %+v", n.Name, tr, w, g)
					}
				}
			}
			we, _ := base.MaxArrival()
			ge, _ := perm.MaxArrival()
			if we.T != ge.T {
				t.Errorf("critical arrival changed under permutation: %g vs %g", we.T, ge.T)
			}
		})
	}
}

// TestMetamorphicMonotonicity: physical pessimism must be monotone.
// Adding capacitance anywhere can only slow arrivals; halving a
// pulldown's width can only slow the fall it drives.
func TestMetamorphicMonotonicity(t *testing.T) {
	p := tech.NMOS4()
	tb := delay.AnalyticTables(p)
	const eps = 1e-18

	run := func(t *testing.T, nw *netlist.Network) *Analyzer {
		t.Helper()
		a := buildAnalyzer(t, nw, delay.NewSlope(tb), nil, nil, Options{})
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	requireNotFaster := func(t *testing.T, what string, base, slow *Analyzer) {
		t.Helper()
		worse := 0
		for i, n := range base.Net.Nodes {
			for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
				w, g := base.Arrival(n, tr), slow.Arrival(slow.Net.Nodes[i], tr)
				if w.Valid != g.Valid {
					t.Errorf("%s: reachability of %s/%s changed", what, n.Name, tr)
					continue
				}
				if !w.Valid {
					continue
				}
				if g.T < w.T-eps {
					t.Errorf("%s: %s/%s got faster: %g -> %g", what, n.Name, tr, w.T, g.T)
				}
				if g.T > w.T+eps {
					worse++
				}
			}
		}
		if worse == 0 {
			t.Errorf("%s: no arrival slowed down; relation is vacuous", what)
		}
	}

	for _, spec := range metamorphicFamilies {
		t.Run(strings.ReplaceAll(spec, ":", "-"), func(t *testing.T) {
			nw, err := gen.Build(spec, p)
			if err != nil {
				t.Fatal(err)
			}
			base := run(t, nw)

			t.Run("cap-increase", func(t *testing.T) {
				// Load every non-rail node a little harder.
				var edits []incremental.Edit
				for _, n := range nw.Nodes {
					if n.IsRail() || n.Kind == netlist.KindInput {
						continue
					}
					edits = append(edits, incremental.Edit{
						Kind: incremental.AddCap, Node: n.Name, Cap: 25e-15,
					})
				}
				res, err := incremental.Apply(nw, edits)
				if err != nil {
					t.Fatal(err)
				}
				requireNotFaster(t, "cap increase", base, run(t, res.Net))
			})
			t.Run("width-decrease", func(t *testing.T) {
				// Halve the width of every input-gated pulldown. Width
				// decrease is NOT globally monotone — the device's channel
				// capacitance loads its output, so a narrower pulldown
				// makes the pullup-driven rise faster — but the transition
				// the device itself drives (the fall at its non-rail
				// terminal) can only slow: resistance doubles while the
				// node keeps its wire and fanout-gate load.
				var edits []incremental.Edit
				var driven []*netlist.Node
				for i, tr := range nw.Trans {
					if tr.IsWire() || tr.Gate == nil || tr.Gate.Kind != netlist.KindInput {
						continue
					}
					var out *netlist.Node
					switch {
					case tr.A.Kind == netlist.KindGnd:
						out = tr.B
					case tr.B.Kind == netlist.KindGnd:
						out = tr.A
					default:
						continue // pass device: no unambiguous driven node
					}
					edits = append(edits, incremental.Edit{
						Kind: incremental.Resize, Index: i, W: tr.W / 2,
					})
					driven = append(driven, out)
				}
				if len(edits) == 0 {
					t.Skip("no input-gated pulldowns to weaken")
				}
				res, err := incremental.Apply(nw, edits)
				if err != nil {
					t.Fatal(err)
				}
				slow := run(t, res.Net)
				worse := 0
				for _, n := range driven {
					w, g := base.Arrival(n, tech.Fall), slow.Arrival(slow.Net.Nodes[n.Index], tech.Fall)
					if !w.Valid || !g.Valid {
						t.Errorf("width decrease: fall at %s unreachable (base %v, weakened %v)",
							n.Name, w.Valid, g.Valid)
						continue
					}
					if g.T < w.T-eps {
						t.Errorf("width decrease: %s/fall got faster: %g -> %g", n.Name, w.T, g.T)
					}
					if g.T > w.T+eps {
						worse++
					}
				}
				if worse == 0 {
					t.Error("width decrease slowed no driven fall; relation is vacuous")
				}
			})
		})
	}
}
