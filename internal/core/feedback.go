// Structural feedback detection: find the nodes that can lie on a cycle of
// the event graph the drain follows, so the per-node event guard
// (Options.MaxEventsPerNode) applies to real loops only.
//
// Crystal cut combinational feedback at user loop-break directives and
// nowhere else. An event-count guard applied to every node also fires on
// acyclic logic whose longest-path relaxation simply takes many rounds
// (deep reconvergent fan-in keeps improving a node's arrival), and where it
// fires it silently truncates the answer. On a circuit without a cycle the
// drain terminates on its own — every (time, slope) stream is finite — so
// the guard is only needed where a cycle can re-queue events forever.
//
// The graph is a conservative over-approximation of the drain's
// (node, transition) dependency graph, projected onto nodes:
//
//   - a gate node reaches every node a stage of a device it gates can
//     target: the device's channel terminals themselves (a turn-on stage may
//     end at a far terminal that is a chip input) and the sensitized channel
//     groups of both terminals;
//   - a chip input also reaches the groups its channel terminals touch (its
//     own transition rides through conducting pass devices);
//   - channel groups are connected through every device the conduction
//     oracle does not rule out, never through rails or inputs, exactly as
//     stage enumeration walks them.
//
// Cuts mirror the drain: always-on devices respond to no gate event, rails
// never take an event, and loop-break nodes record their arrival without
// fanning out. A statically off device still contributes its gate edges —
// a gate can take the transition toward its settled level, and that
// turn-off releases the device's groups — but no channel connectivity.
//
// Groups are vertices of their own (node → group → member), which keeps the
// graph at O(nodes + transistors) edges however large a bus group grows. A
// node lies on a cycle exactly when its strongly connected component in
// that bipartite graph has more than one vertex, or it reaches itself.
package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/netlist"
	"repro/internal/stage"
	"repro/internal/tech"
)

// feedback is the structural feedback analysis of one network generation
// under one sensitization and loop-break set. Everything is in node-index
// space, which is stable across edit generations.
type feedback struct {
	// sccOf maps a node to its nontrivial strongly connected component in
	// sccs, -1 when it lies on no loop. Loop members are the only nodes
	// the feedback guard counts and cuts.
	sccOf []int32
	// sccs lists each nontrivial component's node indexes, ascending; the
	// components are ordered by their smallest member.
	sccs [][]int32
}

// buildFeedback runs the structural analysis over nw with the given
// conduction oracle (nil: worst case, every device may conduct) and
// loop-break mask (node-index space).
func buildFeedback(nw *netlist.Network, oracle stage.Oracle, loopBreak []bool) *feedback {
	n := len(nw.Nodes)
	off := func(t *netlist.Trans) bool { return oracle != nil && oracle(t) == stage.Off }

	// Channel groups: union-find over non-source nodes joined by devices
	// that may conduct.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, t := range nw.Trans {
		if t.A.IsSource() || t.B.IsSource() || off(t) {
			continue
		}
		if ra, rb := find(int32(t.A.Index)), find(int32(t.B.Index)); ra != rb {
			parent[ra] = rb
		}
	}
	group := make([]int32, n) // node → group vertex (n + k), -1 for sources
	groups := 0
	for i, nd := range nw.Nodes {
		group[i] = -1
		if !nd.IsSource() && find(int32(i)) == int32(i) {
			group[i] = int32(n + groups)
			groups++
		}
	}
	for i, nd := range nw.Nodes {
		if !nd.IsSource() {
			group[i] = group[find(int32(i))]
		}
	}

	// CSR adjacency over n node vertices followed by the group vertices.
	nv := n + groups
	start := make([]int32, nv+1)
	var adj []int32
	target := func(x *netlist.Node) int32 {
		switch {
		case x.IsRail():
			return -1
		case x.IsSource():
			return int32(x.Index)
		}
		return group[x.Index]
	}
	// An input gating a device on its own channel reaches itself directly
	// (the turn-on stage ends at the far terminal): the one self-loop the
	// graph can hold, and a cycle of one vertex.
	selfLoop := make([]bool, n)
	add := func(v int32) {
		if v >= 0 {
			adj = append(adj, v)
		}
	}
	for i, nd := range nw.Nodes {
		start[i] = int32(len(adj))
		if nd.IsRail() || (loopBreak != nil && loopBreak[i]) {
			continue
		}
		for _, t := range nd.Gates {
			if t.AlwaysOn() {
				continue
			}
			for _, x := range [2]*netlist.Node{t.A, t.B} {
				v := target(x)
				selfLoop[i] = selfLoop[i] || v == int32(i)
				add(v)
			}
		}
		if nd.Kind == netlist.KindInput {
			for _, t := range nd.Terms {
				if o := t.Other(nd); o != nil && !o.IsSource() && !off(t) {
					add(group[o.Index])
				}
			}
		}
	}
	// Group vertices list their members: bucket the nodes by group.
	members := make([]int32, groups+1)
	for i := range nw.Nodes {
		if g := group[i]; g >= 0 {
			members[int(g)-n+1]++
		}
	}
	for k := 1; k <= groups; k++ {
		members[k] += members[k-1]
	}
	base := int32(len(adj))
	adj = append(adj, make([]int32, members[groups])...)
	fill := slices.Clone(members[:groups])
	for i := range nw.Nodes {
		if g := group[i]; g >= 0 {
			k := int(g) - n
			adj[base+fill[k]] = int32(i)
			fill[k]++
		}
	}
	for k := 0; k <= groups; k++ {
		start[n+k] = base + members[k]
	}

	comp, ncomp := tarjan(start, adj)
	size := make([]int32, ncomp)
	for _, c := range comp {
		size[c]++
	}
	id := make([]int32, ncomp) // component → index in sccs + 1
	fb := &feedback{sccOf: make([]int32, n)}
	for i := 0; i < n; i++ {
		fb.sccOf[i] = -1
		c := comp[i]
		if size[c] < 2 && !selfLoop[i] {
			continue
		}
		if id[c] == 0 {
			fb.sccs = append(fb.sccs, nil)
			id[c] = int32(len(fb.sccs))
		}
		k := id[c] - 1
		fb.sccOf[i] = k
		fb.sccs[k] = append(fb.sccs[k], int32(i))
	}
	return fb
}

// tarjan labels every vertex of the CSR graph (start, adj) with its
// strongly connected component, iteratively (chip-scale graphs are far too
// deep for recursion), and returns the component count.
func tarjan(start, adj []int32) ([]int32, int32) {
	nv := len(start) - 1
	index := make([]int32, nv) // discovery order + 1; 0 = unvisited
	low := make([]int32, nv)
	comp := make([]int32, nv)
	onStack := make([]bool, nv)
	var stack []int32
	type frame struct{ v, e int32 }
	var call []frame
	next, ncomp := int32(1), int32(0)
	for root := 0; root < nv; root++ {
		if index[root] != 0 {
			continue
		}
		call = append(call, frame{int32(root), start[root]})
		index[root], low[root] = next, next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if f.e < start[v+1] {
				w := adj[f.e]
				f.e++
				switch {
				case index[w] == 0:
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{w, start[w]})
				case onStack[w] && index[w] < low[v]:
					low[v] = index[w]
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				if p := call[len(call)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp, ncomp
}

// buildFeedbackGraph (re)computes the structural feedback analysis for the
// current generation and sensitization.
func (a *Analyzer) buildFeedbackGraph() {
	lb := make([]bool, len(a.Net.Nodes))
	for _, n := range a.Opts.LoopBreak {
		lb[n.Index] = true
	}
	a.fb = buildFeedback(a.Net, a.oracle(), lb)
}

// guardCut is the feedback guard, shared by the serial and parallel drains:
// it counts one propagation round of the popped (node, tr) at row and
// reports whether the round must be cut. Only members of a structural
// feedback loop are counted — on every other node the event stream is
// finite, so the drain needs no bound there. Rounds, not improvements, are
// counted, so deep relaxation inside a loop is unaffected while a spinning
// cycle (which re-queues forever) is stopped; the node is listed in
// Unbounded on its first cut round.
func (a *Analyzer) guardCut(node, row int, tr tech.Transition) bool {
	if a.fb.sccOf[node] < 0 {
		return false
	}
	a.count[row][tr]++
	switch c := a.count[row][tr]; {
	case c <= a.Opts.MaxEventsPerNode:
		return false
	case c == a.Opts.MaxEventsPerNode+1:
		a.Unbounded = append(a.Unbounded, a.Net.Nodes[node])
	}
	return true
}

// FeedbackLoop is one structural feedback loop that hit the guard.
type FeedbackLoop struct {
	// Size is the loop's node count.
	Size int
	// Nodes lists the loop's members in index order.
	Nodes []*netlist.Node
	// Guarded counts the members listed in Unbounded.
	Guarded int
}

// FeedbackLoops returns the structural feedback loops with at least one
// guarded (Unbounded) member, in member-index order — the places a
// loop-break directive can go.
func (a *Analyzer) FeedbackLoops() []FeedbackLoop {
	if len(a.Unbounded) == 0 {
		return nil
	}
	guarded := make([]int, len(a.fb.sccs))
	for _, n := range a.Unbounded {
		guarded[a.fb.sccOf[n.Index]]++ // only loop members are ever guarded
	}
	var out []FeedbackLoop
	for k, scc := range a.fb.sccs {
		if guarded[k] == 0 {
			continue
		}
		l := FeedbackLoop{Size: len(scc), Guarded: guarded[k], Nodes: make([]*netlist.Node, len(scc))}
		for i, idx := range scc {
			l.Nodes[i] = a.Net.Nodes[idx]
		}
		out = append(out, l)
	}
	return out
}

// loopNames renders up to limit member names of a loop, with an ellipsis
// when there are more.
func loopNames(nodes []*netlist.Node, limit int) string {
	var b strings.Builder
	for i, n := range nodes {
		if i == limit {
			b.WriteString(" …")
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(n.Name)
	}
	return b.String()
}

// sccSummary names the structural loop holding node idx for diagnostics:
// its size and first few members. fb may be a previous generation's
// analysis (node indexes are stable and nodes are never deleted).
func (a *Analyzer) sccSummary(fb *feedback, idx int) string {
	scc := fb.sccs[fb.sccOf[idx]]
	nodes := make([]*netlist.Node, len(scc))
	for i, m := range scc {
		nodes[i] = a.Net.Nodes[m]
	}
	return fmt.Sprintf("%d nodes: %s", len(scc), loopNames(nodes, 4))
}
