// Incremental re-analysis: apply an edit batch from package incremental,
// derive the next stage-database generation sharing every untouched entry,
// reset only the arrivals the edits can move, and re-drain the event queue
// from the dirty frontier. Results are bit-identical to a from-scratch
// analysis of the edited network — the deterministic tie-break in improve
// makes the fixpoint independent of propagation order, and the engine
// falls back to a full run whenever it cannot prove the shortcut safe.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/incremental"
	"repro/internal/netlist"
	"repro/internal/stage"
	"repro/internal/tech"
)

// ReanalyzeStats reports what one Reanalyze call did.
type ReanalyzeStats struct {
	// Full reports that the engine fell back to a from-scratch analysis;
	// Reason says why.
	Full   bool
	Reason string

	// DirtyNodes / TotalNodes / DirtyFrac describe the invalidation plan
	// (non-source nodes; DirtyFrac = DirtyNodes/TotalNodes).
	DirtyNodes int
	TotalNodes int
	DirtyFrac  float64

	// Epoch is the stage-database generation after the call.
	Epoch uint64
	// StagesEvaluated counts model evaluations this call performed (the
	// same metric StagesEvaluated reports cumulatively).
	StagesEvaluated int
}

// Reanalyze applies the edit batch and brings the analysis up to date.
// The previous network generation is never mutated — concurrent readers
// of the old network or its stage database always finish on a consistent
// snapshot — and afterwards a.Net, a.StageDB() and every arrival describe
// the edited network exactly as a fresh Run over it would.
//
// The incremental path is taken when the invalidation plan stays under
// Options.ReanalyzeMaxDirty and nothing poisons the shortcut; otherwise
// the analysis reruns from scratch (still against the new generation).
// Either way the seeded input events and fixed values carry over.
func (a *Analyzer) Reanalyze(edits []incremental.Edit) (*ReanalyzeStats, error) {
	if a.events == nil {
		return nil, fmt.Errorf("core: Reanalyze before Run")
	}
	oldStatic := a.static
	oldDB := a.db
	oldFB := a.fb

	res, err := incremental.Apply(a.Net, edits)
	if err != nil {
		return nil, err
	}
	a.rebind(res.Net)
	if err := a.settleStatic(); err != nil {
		return nil, err
	}
	if geometryOnly(edits) && len(a.Net.Nodes) == len(oldFB.sccOf) && slices.Equal(oldStatic, a.static) {
		// Neither topology nor sensitization moved: the loops are the same.
		a.fb = oldFB
	} else {
		a.buildFeedbackGraph()
	}
	plan := res.Plan(oldStatic, a.static)
	if a.hier != nil && !plan.ForceFull {
		// Detach stamped instances the batch reaches (widening the plan to
		// cover their interiors) before the incremental/full decision reads
		// the dirty fraction.
		a.hierReanalyze(res, plan)
	}

	stats := &ReanalyzeStats{
		DirtyNodes: plan.DirtyNodes,
		DirtyFrac:  plan.Frac,
	}
	for _, n := range a.Net.Nodes {
		if !n.IsSource() {
			stats.TotalNodes++
		}
	}
	switch {
	case plan.ForceFull:
		stats.Full, stats.Reason = true, "retype changed the strong-source set"
	case plan.Frac > a.Opts.ReanalyzeMaxDirty:
		stats.Full, stats.Reason = true,
			fmt.Sprintf("dirty fraction %.2f above threshold %.2f", plan.Frac, a.Opts.ReanalyzeMaxDirty)
	default:
		// The dirty cone reaches a structural feedback loop (before or after
		// the edit). The loop's guard cutoff depends on the whole pop order,
		// and a loop spanning the dirty/clean boundary would have its clean
		// half replay recorded history instead of responding, so only a
		// from-scratch drain reproduces the full run's spin. Loops wholly
		// outside the cone carry over: their event streams are independent
		// of it, so their cutoffs are already canonical.
		if why := a.dirtyFeedback(plan, oldFB); why != "" {
			stats.Full, stats.Reason = true, why
		}
	}
	if stats.Full {
		// A from-scratch drain recomputes every arrival flat; nothing
		// stays stamped, so hierarchical state would only misreport.
		a.dropHier()
	}

	// Next stage-database generation. A full fallback still derives when
	// it can: the entries are valid either way, only the arrivals need
	// recomputing. ForceFull means the source set changed under the
	// enumerator's feet, so nothing old is trustworthy.
	opt := a.Opts.Stage
	opt.Oracle = a.oracle()
	stamp := a.stageStamp()
	if plan.ForceFull || oldDB == nil {
		a.db = stage.NewDB(a.Net, opt)
		if oldDB != nil {
			a.db.Epoch = oldDB.Epoch + 1
		}
	} else {
		a.db = oldDB.Derive(a.Net, opt, plan.DirtyTrans, plan.DBDirtyNode, res.OldTrans)
	}
	a.db.Stamp = stamp
	stats.Epoch = a.db.Epoch

	evBefore := a.stageEv
	if stats.Full {
		a.runFull()
	} else {
		a.runIncremental(plan)
	}
	a.Truncated = a.Truncated || a.db.Truncated()
	stats.StagesEvaluated = a.stageEv - evBefore
	return stats, nil
}

// geometryOnly reports whether an edit batch changes only sizes and
// capacitances — nothing the structural feedback graph reads.
func geometryOnly(edits []incremental.Edit) bool {
	for _, e := range edits {
		if e.Kind != incremental.Resize && e.Kind != incremental.AddCap {
			return false
		}
	}
	return true
}

// dirtyFeedback names the first structural feedback loop, of the previous
// generation or the current one, that holds a node in the invalidation
// plan's dirty cone, or returns "" when the cone is loop-free. The cone is
// closed under the drain's fanout, so a dirty loop member is the only way
// an edit can reach a loop.
func (a *Analyzer) dirtyFeedback(plan *incremental.Plan, old *feedback) string {
	for _, fb := range []*feedback{a.fb, old} {
		for _, scc := range fb.sccs {
			for _, idx := range scc {
				if int(idx) < len(a.Net.Nodes) && plan.NodeDirty(int(idx)) {
					return "edit reaches a feedback loop (" + a.sccSummary(fb, int(idx)) + ")"
				}
			}
		}
	}
	return ""
}

// rebind repoints the analyzer at the next network generation. Node
// indexes are stable across edits and nodes are never deleted, so
// index-keyed state (fixed values, initial values, the per-node drain
// arrays) carries over untouched and only grows to cover added nodes;
// node pointers must be remapped.
func (a *Analyzer) rebind(nw *netlist.Network) {
	a.Net = nw
	for i := range a.seeded {
		a.seeded[i].node = nw.Nodes[a.seeded[i].node.Index]
	}
	for i, n := range a.Opts.LoopBreak {
		a.Opts.LoopBreak[i] = nw.Nodes[n.Index]
	}
	a.Opts.DB = nil // a caller-shared DB describes the old generation
	a.buildGates()
	grow := len(nw.Nodes) - len(a.events)
	a.events = append(a.events, make([][2]Event, grow)...)
	a.count = append(a.count, make([][2]int, grow)...)
	a.hist = append(a.hist, make([][2]nodeHist, grow)...)
	a.queued = append(a.queued, make([][2]bool, grow)...)
}

// runFull redoes the analysis from scratch over the current generation
// (the stage database is already bound).
func (a *Analyzer) runFull() {
	nw := a.Net
	a.events = make([][2]Event, len(nw.Nodes))
	a.count = make([][2]int, len(nw.Nodes))
	a.hist = make([][2]nodeHist, len(nw.Nodes))
	a.resetHistArena()
	a.queued = make([][2]bool, len(nw.Nodes))
	a.queue.Reset()
	a.queue.Grow(4 * len(nw.Nodes))
	a.Unbounded = nil
	if w := Workers(a.Opts.Workers, 0); w > 1 {
		a.db.Prewarm(w)
	}
	a.seedAll()
	a.drain()
}

// runIncremental resets only the dirty arrivals and re-propagates from the
// clean/dirty boundary.
//
// Why this reaches the same fixpoint as runFull: every timing edge runs
// either within one channel-connected group (stages span one group) or
// along gate fanout (a gate event triggers stages in the gated device's
// group). The plan's time-dirty set is closed under gate fanout from every
// perturbed group, so no arrival outside it can change — clean events are
// already at the full analysis's fixpoint, and re-applying their candidates
// is a no-op under the tie-break. Conversely every event inside the dirty
// cone is rederivable from the boundary: the clean nodes (and inputs)
// whose events trigger stages into dirty groups. Reanalyze only takes this
// path when the dirty cone holds no feedback-loop member, so no guard can
// fire here.
func (a *Analyzer) runIncremental(plan *incremental.Plan) {
	nw := a.Net
	// rebind already grew the per-node state to this generation (new
	// nodes hold zero entries); only the dirty resets remain.
	for i := range nw.Nodes {
		if plan.NodeDirty(i) {
			a.events[i] = [2]Event{}
			a.count[i] = [2]int{}
			for tr := range a.hist[i] {
				a.freeHist(&a.hist[i][tr])
			}
			a.queued[i] = [2]bool{}
		}
	}
	a.queue.Reset()
	// Every guard hit is a loop member outside the dirty cone. Clean nodes
	// never re-enter the heap, so they cannot re-report themselves; carry
	// the list over, repointed at this generation (node indexes are
	// stable), or Unbounded would diverge from a fresh full run's.
	carried := make([]*netlist.Node, len(a.Unbounded))
	for i, n := range a.Unbounded {
		carried[i] = nw.Nodes[n.Index]
	}
	a.Unbounded = carried

	// Boundary replay: collect every clean event that can trigger a stage
	// whose group is time-dirty — not just the final arrival, but the whole
	// recorded history (superseded-but-propagated events first), because a
	// full run propagated those too and a steeper superseded slope can
	// produce the latest downstream consequence. The items are merged into
	// the drain in trigger-time order so candidate generation follows the
	// same global order as a from-scratch run. Improvements can only land on
	// dirty nodes (see above), so clean state — including propagation counts
	// and history — is never touched.
	var replays []replayItem
	for i, n := range nw.Nodes {
		if plan.NodeDirty(i) {
			continue
		}
		touches := false
		for _, ref := range a.cnet.Gates(i) {
			ti, _ := netlist.UnpackGateRef(ref)
			if plan.TransTouchesDirty(nw.Trans[ti]) {
				touches = true
				break
			}
		}
		if !touches && n.Kind == netlist.KindInput && len(n.Terms) > 0 {
			touches = plan.SourceTouchesDirty(n)
		}
		if !touches {
			continue
		}
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			h := &a.hist[i][tr]
			for ci := h.head; ci != 0; ci = a.histChunkAt(ci).next {
				c := a.histChunkAt(ci)
				for k := int32(0); k < c.n; k++ {
					replays = append(replays, replayItem{i, tr, c.ev[k].t, c.ev[k].slope})
				}
			}
			if ev := a.events[i][tr]; ev.Valid && h.propagated {
				replays = append(replays, replayItem{i, tr, ev.T, ev.Slope})
			}
		}
	}
	slices.SortFunc(replays, func(x, y replayItem) int {
		switch {
		case x.t != y.t:
			return cmp.Compare(x.t, y.t)
		case x.node != y.node:
			return cmp.Compare(x.node, y.node)
		default:
			return cmp.Compare(x.tr, y.tr)
		}
	})
	// Seeds on dirty nodes: an input is a strong source and never dirty,
	// but re-applying is cheap and covers any seed landing on a node the
	// batch created or perturbed.
	for _, s := range a.seeded {
		if plan.NodeDirty(s.node.Index) {
			a.improve(s.node.Index, s.tr, Event{
				T: s.t, Slope: s.slope, Valid: true, FromNode: -1,
			})
		}
	}
	a.drainReplay(replays)
}
