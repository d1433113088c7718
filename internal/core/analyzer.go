// Package core is the timing verifier: the Crystal-style worst-case
// analyzer that propagates latest rise/fall times (with slopes) through a
// switch-level network using a pluggable delay model, and traces the
// critical paths.
//
// The analysis is vectorless. Each node carries two worst-case events —
// the latest time it can finish rising and the latest time it can finish
// falling. Chip inputs are seeded by the user; events then propagate:
//
//   - a gate event that turns a transistor ON evaluates every stage whose
//     path runs through that transistor (package stage enumerates them);
//   - a gate event that turns a transistor OFF releases its channel nodes,
//     which may now move toward whatever still drives them (the classic
//     nMOS case: output rises through the depletion load after the
//     pulldown shuts off);
//   - an input's own transition propagates through already-conducting
//     pass transistors.
//
// Static sensitization from the switch-level simulator prunes stages
// through definitely-off transistors and transitions to values a node
// already holds. Everything else is worst case, as in the paper.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/sched"
	"repro/internal/stage"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// Event is a worst-case arrival: node n finishes transition tr at time T
// (50% crossing) with 10–90% transition time Slope.
type Event struct {
	T     float64
	Slope float64
	Valid bool

	// Provenance for path tracing.
	FromNode int             // predecessor node index, -1 for seeded inputs
	FromTr   tech.Transition // predecessor transition
	Via      *stage.Stage    // stage that produced this event (nil if seeded)
}

// Options tunes the analysis.
type Options struct {
	// Stage bounds path enumeration (see stage.Options).
	Stage stage.Options
	// DB optionally shares a precomputed stage database built by an
	// earlier run over the same network with the same sensitization
	// (fixed values, seeded inputs, pruning mode, enumeration bounds).
	// Run verifies the database's stamp against this analysis and falls
	// back to a private database on any mismatch, so a stale DB can cost
	// time but never correctness. Obtain one from Analyzer.StageDB after
	// a Run. Safe to share across concurrent analyzers.
	DB *stage.DB
	// Workers sizes the work of one analysis that is independent by
	// construction (0 selects GOMAXPROCS): with more than one worker the
	// stage database is prewarmed concurrently before the drain. The
	// event loop itself is always the serial drain, so arrival times,
	// slopes, provenance and feedback-guard verdicts are bit-identical at
	// every worker count. Workers = 1 is the strict no-goroutine mode.
	Workers int
	// MaxEventsPerNode bounds combinational feedback: a node on a
	// structural feedback loop (feedback.go) stops propagating after this
	// many propagation rounds and is recorded in Unbounded (default 150 —
	// relaxation inside a loop can legitimately take tens of rounds).
	// Nodes on no loop are never counted: their event streams are finite
	// by construction, so on acyclic logic this constant changes no
	// answer.
	MaxEventsPerNode int
	// DefaultSlope is the transition time assumed for seeded inputs that
	// do not specify one (default 1 ns).
	DefaultSlope float64
	// NoStaticPruning disables the switch-level sensitization pruning,
	// yielding the fully pessimistic analysis (ablation knob).
	NoStaticPruning bool
	// LoopBreak lists nodes whose events are recorded but not propagated
	// further — the user directive Crystal required to cut combinational
	// feedback (latch internals) out of the worst-case iteration.
	LoopBreak []*netlist.Node
	// ReanalyzeMaxDirty is the dirty-node fraction above which Reanalyze
	// abandons incremental propagation and redoes the analysis from
	// scratch — past it, resetting and re-propagating most of the chip
	// costs more than a clean full run (default 0.5).
	ReanalyzeMaxDirty float64
	// Hier enables hierarchical macromodel analysis (see hier.go): repeated
	// instances annotated in the netlist are detected, one representative
	// per class is analyzed flat, and its interior timing is stamped onto
	// every member whose boundary context matches exactly. Results are
	// bit-identical to a flat run; instances whose context differs fall
	// back to flat analysis individually.
	Hier bool
}

func (o Options) fill() Options {
	if o.MaxEventsPerNode <= 0 {
		o.MaxEventsPerNode = 150
	}
	if o.DefaultSlope <= 0 {
		o.DefaultSlope = 1e-9
	}
	if o.ReanalyzeMaxDirty <= 0 {
		o.ReanalyzeMaxDirty = 0.5
	}
	return o
}

// Analyzer performs worst-case timing analysis of one network with one
// delay model. Build with New, seed inputs, then Run.
type Analyzer struct {
	Net   *netlist.Network
	Model delay.Model
	Opts  Options

	sim    *switchsim.Sim
	static []switchsim.Value // settled values under fixed inputs

	// Per-node drain state, indexed by node index.
	events [][2]Event    // per node: [Rise, Fall]
	count  [][2]int      // improvement counters
	hist   [][2]nodeHist // superseded-but-propagated events (incremental replay)

	// histBlocks backs every nodeHist chain: fixed-size blocks of chunks
	// addressed by a flat int32 index, with histFree heading a free chain
	// of chunks returned by dirty-node resets. Blocks are pointer-free
	// and, once allocated, never move — the previous single-slice arena
	// re-allocated and copied itself on every capacity step, and that
	// growslice traffic (fresh pages, memmove, GC churn) billed ~25% of a
	// chip-scale drain. Index 0 is a sentinel ("no chunk"), so the zero
	// nodeHist is naturally empty.
	histBlocks [][]histChunk
	histLen    int32
	histFree   int32

	// Unbounded lists feedback-loop nodes the guard cut off after
	// Options.MaxEventsPerNode rounds; their times are lower bounds only.
	// FeedbackLoops names the loops they lie on.
	Unbounded []*netlist.Node
	// Truncated reports that stage enumeration hit a cap somewhere.
	Truncated bool

	seeded       []seedEvent
	fixed        map[int]switchsim.Value
	initial      []switchsim.Value // pre-settle stored values (clocked analyses)
	loopBreak    []bool
	cachedOracle stage.Oracle
	fb           *feedback // structural feedback loops (feedback.go)
	queue        sched.Queue
	queued       [][2]bool // per (node, transition): live entry in the queue
	stageEv      int       // stages evaluated (cost metric)

	// db memoizes stage enumeration: sensitization is static during Run,
	// so a trigger's stages never change. Either a private database or
	// one shared via Options.DB (stamp-checked in Run).
	db *stage.DB

	// cnet is the compiled structure-of-arrays view of a.Net (CSR gate
	// adjacency, per-node flags) — the only network representation the
	// event loop reads. Rebuilt per generation by buildGates.
	cnet *netlist.Compact

	// Hierarchical analysis state (nil when Options.Hier is off or nothing
	// was detected). The masks alias hier's current masks and are checked
	// in the hot loops; both are nil whenever nothing is stamped, so the
	// flat path costs one nil check. Indexed by node / transistor index.
	hier          *hierState
	hierSkipNode  []bool
	hierSkipTrans []bool
}

// histEvent is one superseded event that was propagated before being
// replaced. A node's worst-case (T, Slope) pair is not a complete summary
// of its influence: an earlier event with a slower slope can produce a
// LATER arrival downstream (slope degradation through the delay model), so
// its candidates survive in downstream maxima even after the event itself
// is replaced. Incremental re-analysis must replay these to reproduce a
// from-scratch run bit for bit.
type histEvent struct {
	t, slope float64
}

// histChunkLen is the events-per-chunk of the history arena: sized so the
// common short streams (a handful of superseded events) fit in one chunk
// while reconvergent hub nodes chain a few dozen.
const histChunkLen = 8

// histChunk is one arena block of a (node, transition)'s recorded stream.
// next links to the following chunk (arena index; 0 terminates). Freed
// chains are threaded through next onto the analyzer's free list.
type histChunk struct {
	ev   [histChunkLen]histEvent
	n    int32
	next int32
}

// nodeHist tracks one (node, transition)'s replay state: the complete
// chain of superseded-but-propagated events in propagation order (T
// non-decreasing), stored in the analyzer's history arena (head/tail are
// chunk indexes, 0 = empty), and whether the CURRENT event has propagated
// yet.
//
// The chain is deliberately NOT pruned to the slope frontier: replay
// re-propagates exactly the stream a full run propagated, round for round.
// (Dominated entries — an earlier, shallower event followed by a later,
// steeper one — cannot change any final arrival, but on a feedback-loop
// node rounds are what the guard counts.)
//
// Chain length: on a node of a structural feedback loop the guard stops
// propagation — and therefore recording — after Options.MaxEventsPerNode
// rounds per (node, transition). Every other node is never guarded; its
// chain is bounded by its pop count, the number of distinct events it
// propagates, which is finite because the node lies on no cycle (a median
// of about 25–30 per node on the E6 chip).
type nodeHist struct {
	head, tail int32
	propagated bool
}

// histBlockBits sizes arena blocks at 1<<histBlockBits chunks (~550 KiB
// each): big enough that a chip-scale run allocates a handful of blocks,
// small enough that gate-sized runs don't overcommit.
const histBlockBits = 12

// histChunkAt resolves a flat arena index to its chunk.
func (a *Analyzer) histChunkAt(idx int32) *histChunk {
	return &a.histBlocks[idx>>histBlockBits][idx&(1<<histBlockBits-1)]
}

// appendHist records one superseded-but-propagated event on h's chain.
func (a *Analyzer) appendHist(h *nodeHist, t, slope float64) {
	if h.tail != 0 {
		if c := a.histChunkAt(h.tail); c.n < histChunkLen {
			c.ev[c.n] = histEvent{t, slope}
			c.n++
			return
		}
	}
	idx := a.newHistChunk()
	c := a.histChunkAt(idx)
	c.ev[0] = histEvent{t, slope}
	c.n = 1
	if h.tail == 0 {
		h.head = idx
	} else {
		a.histChunkAt(h.tail).next = idx
	}
	h.tail = idx
}

// newHistChunk returns a zeroed chunk: off the free list when a dirty
// reset returned one, the next never-used slot otherwise (appending a
// fresh block when the current one is full; index 0 stays the sentinel).
func (a *Analyzer) newHistChunk() int32 {
	if idx := a.histFree; idx != 0 {
		c := a.histChunkAt(idx)
		a.histFree = c.next
		*c = histChunk{}
		return idx
	}
	if a.histLen == 0 {
		a.histLen = 1 // reserve the index-0 sentinel
	}
	if int(a.histLen)>>histBlockBits == len(a.histBlocks) {
		a.histBlocks = append(a.histBlocks, make([]histChunk, 1<<histBlockBits))
	}
	idx := a.histLen
	a.histLen++
	// Blocks survive resetHistArena without being rezeroed, so a slot may
	// hold a previous drain's chunk.
	*a.histChunkAt(idx) = histChunk{}
	return idx
}

// freeHist clears h and threads its chunk chain onto the free list for
// reuse (a dirty hub node re-records a stream of comparable length every
// epoch).
func (a *Analyzer) freeHist(h *nodeHist) {
	if h.head != 0 {
		a.histChunkAt(h.tail).next = a.histFree
		a.histFree = h.head
	}
	*h = nodeHist{}
}

// resetHistArena empties the arena for a fresh from-scratch drain,
// keeping the allocated blocks; every nodeHist referencing it must be
// zeroed by the caller.
func (a *Analyzer) resetHistArena() {
	a.histLen = 0
	a.histFree = 0
}

type seedEvent struct {
	node  *netlist.Node
	tr    tech.Transition
	t     float64
	slope float64
}

type qkey struct {
	node int
	tr   tech.Transition
}

// The pending-propagation queue is sched.Queue: a value-slice priority
// queue under the strict total order sched.Less (arrival time, then node,
// then transition). A mere partial order on time would let the pop order
// of tied events depend on the queue's internal arrangement — i.e. on
// every unrelated event ever pushed — which makes feedback-guard cutoffs
// irreproducible between a full run and an incremental one. Node indexes
// are stable across incremental edits, so this order is canonical for a
// given event set. Entries are stamped with the arrival time they were
// queued at; stale ones (superseded by a re-push) are skipped at pop.

// New creates an analyzer for the network using the given delay model.
func New(nw *netlist.Network, m delay.Model, opts Options) *Analyzer {
	return &Analyzer{
		Net:   nw,
		Model: m,
		Opts:  opts.fill(),
		fixed: make(map[int]switchsim.Value),
	}
}

// SetFixed pins a node to a constant logic value for sensitization (e.g. a
// mode or enable input that does not toggle in the analyzed scenario).
func (a *Analyzer) SetFixed(n *netlist.Node, v switchsim.Value) {
	a.fixed[n.Index] = v
}

// SetInputEvent seeds a worst-case transition on a chip input: node n
// finishes transition tr at time t with the given 10–90% slope (0 selects
// Options.DefaultSlope).
func (a *Analyzer) SetInputEvent(n *netlist.Node, tr tech.Transition, t, slope float64) error {
	if n.Kind != netlist.KindInput {
		return fmt.Errorf("core: %s is not marked as an input", n.Name)
	}
	if slope <= 0 {
		slope = a.Opts.DefaultSlope
	}
	a.seeded = append(a.seeded, seedEvent{n, tr, t, slope})
	return nil
}

// SetInputEventName is SetInputEvent by node name.
func (a *Analyzer) SetInputEventName(name string, tr tech.Transition, t, slope float64) error {
	n := a.Net.Lookup(name)
	if n == nil {
		return fmt.Errorf("core: no node named %q", name)
	}
	return a.SetInputEvent(n, tr, t, slope)
}

// Arrival returns the worst-case event for node n and transition tr.
func (a *Analyzer) Arrival(n *netlist.Node, tr tech.Transition) Event {
	if a.events == nil {
		return Event{}
	}
	return a.eventAt(n.Index, tr)
}

// StagesEvaluated reports how many stage/model evaluations Run performed —
// the throughput metric of experiment E6.
func (a *Analyzer) StagesEvaluated() int { return a.stageEv }

// oracle returns the sensitization oracle, building it from settled
// static values on first use (one closure per Run, not per event).
func (a *Analyzer) oracle() stage.Oracle {
	if a.Opts.NoStaticPruning || a.static == nil {
		return nil // worst case
	}
	if a.cachedOracle != nil {
		return a.cachedOracle
	}
	// Conduction is a pure function of the settled static values, which are
	// frozen for the lifetime of this oracle — precompute it per transistor
	// so enumeration (which asks per edge of every path and side walk)
	// indexes an array instead of re-deriving device behaviour.
	conduct := make([]stage.Conduction, len(a.Net.Trans))
	for i, t := range a.Net.Trans {
		switch {
		case t.AlwaysOn():
			conduct[i] = stage.On
		default:
			g := a.static[t.Gate.Index]
			if g == switchsim.VX {
				conduct[i] = stage.Maybe
			} else if g == switchsim.FromBool(t.ConductsOn() == 1) {
				conduct[i] = stage.On
			} else {
				conduct[i] = stage.Off
			}
		}
	}
	a.cachedOracle = func(t *netlist.Trans) stage.Conduction {
		return conduct[t.Index]
	}
	return a.cachedOracle
}

// Run executes the analysis. It may be called once per analyzer.
func (a *Analyzer) Run() error {
	if a.events != nil {
		return fmt.Errorf("core: Run already called")
	}
	if len(a.seeded) == 0 {
		return fmt.Errorf("core: no input events seeded")
	}
	nw := a.Net
	a.events = make([][2]Event, len(nw.Nodes))
	a.count = make([][2]int, len(nw.Nodes))
	a.hist = make([][2]nodeHist, len(nw.Nodes))
	a.resetHistArena()
	a.queued = make([][2]bool, len(nw.Nodes))
	a.queue.Reset()
	a.queue.Grow(4 * len(nw.Nodes))
	a.buildGates()

	if err := a.settleStatic(); err != nil {
		return err
	}
	a.buildFeedbackGraph()
	if a.Opts.Hier {
		a.setupHier()
	}

	// Stage database: accept the shared one only if it was built over
	// this network under the same sensitization and enumeration bounds;
	// otherwise build a private one.
	stamp := a.stageStamp()
	if a.Opts.DB != nil && a.Opts.DB.Network() == nw && a.Opts.DB.Stamp == stamp {
		a.db = a.Opts.DB
	} else {
		opt := a.Opts.Stage
		opt.Oracle = a.oracle()
		a.db = stage.NewDB(nw, opt)
		a.db.Stamp = stamp
	}
	if w := Workers(a.Opts.Workers, 0); w > 1 {
		// With stamped members the prewarm skips their devices and inputs
		// entirely — the stage enumerations that were never going to be
		// evaluated are never built, which is the memory win of
		// hierarchical analysis.
		a.db.PrewarmMasked(w, a.hierSkipTrans, a.hierSkipNode)
	}

	if a.hier != nil {
		a.drainAndStamp()
	} else {
		a.seedAll()
		a.drain()
	}
	return nil
}

// buildGates recompiles the structure-of-arrays network view and the
// loop-break mask for the current a.Net generation.
func (a *Analyzer) buildGates() {
	nw := a.Net
	a.cnet = netlist.Compile(nw)
	a.loopBreak = make([]bool, len(nw.Nodes))
	for _, n := range a.Opts.LoopBreak {
		a.loopBreak[n.Index] = true
	}
}

// settleStatic computes the static sensitization snapshot for the current
// a.Net generation: settle the network with fixed values; nodes that
// receive events are left at X (they change during analysis). It replaces
// a.sim, a.static and invalidates the cached oracle.
func (a *Analyzer) settleStatic() error {
	nw := a.Net
	a.cachedOracle = nil
	a.sim = switchsim.New(nw)
	for idx, v := range a.fixed {
		if err := a.sim.SetInput(nw.Nodes[idx], v); err != nil {
			return err
		}
	}
	// Carried state (clocked analyses): seed stored values before the
	// settle so latched nodes keep their phase-boundary levels.
	if a.initial != nil {
		for idx, v := range a.initial {
			n := nw.Nodes[idx]
			if n.IsRail() {
				continue
			}
			if _, isFixed := a.fixed[idx]; isFixed {
				continue
			}
			if err := a.sim.SetValue(n, v); err != nil {
				return err
			}
		}
	}
	a.sim.Settle()
	a.static = a.sim.Snapshot()
	// Nodes downstream of event inputs cannot be trusted as static: the
	// seeded inputs toggle. Re-settle with those inputs at X.
	for _, s := range a.seeded {
		if _, isFixed := a.fixed[s.node.Index]; isFixed {
			return fmt.Errorf("core: node %s both fixed and seeded", s.node.Name)
		}
		if err := a.sim.SetInput(s.node, switchsim.VX); err != nil {
			return err
		}
	}
	a.sim.Settle()
	a.static = a.sim.Snapshot()
	return nil
}

// seedAll applies every seeded input event.
func (a *Analyzer) seedAll() {
	for _, s := range a.seeded {
		a.improve(s.node.Index, s.tr, Event{
			T: s.t, Slope: s.slope, Valid: true, FromNode: -1,
		})
	}
}

// replayItem is one historical boundary event re-injected during
// incremental re-analysis, merged with the heap in trigger-time order so
// candidate generation follows the same global order as a full run.
type replayItem struct {
	node  int
	tr    tech.Transition
	t     float64
	slope float64
}

// drain runs the event loop until the queue empties.
func (a *Analyzer) drain() { a.drainReplay(nil) }

// drainReplay runs the event loop, interleaving the given replay items
// (sorted by time) with the heap in time order. Replays re-propagate the
// recorded events of clean boundary nodes; they bypass the improvement
// counters because the counts already include those rounds from the run
// that recorded them.
func (a *Analyzer) drainReplay(replays []replayItem) {
	ri := 0
	for a.queue.Len() > 0 || ri < len(replays) {
		if ri < len(replays) && (a.queue.Len() == 0 ||
			!sched.Less(a.queue.Peek(), sched.Item{T: replays[ri].t, Node: int32(replays[ri].node), Tr: uint8(replays[ri].tr)})) {
			r := replays[ri]
			ri++
			a.propagateEvent(r.node, r.tr, Event{T: r.t, Slope: r.slope, Valid: true})
			continue
		}
		// Pop the earliest pending event: processing in time order makes
		// most improvements final on first visit — longest-path over a
		// DAG degenerates to one visit per node; reconvergence and
		// cycles re-queue. The queue holds stale entries (an improvement
		// re-pushes with the new time); only an entry matching the
		// node's current arrival is live.
		it := a.queue.Pop()
		node, tr := int(it.Node), tech.Transition(it.Tr)
		if !a.queued[node][tr] || it.T != a.events[node][tr].T {
			continue // stale: a fresher entry is in the queue
		}
		a.queued[node][tr] = false
		if a.guardCut(node, tr) {
			continue
		}
		a.hist[node][tr].propagated = true
		a.propagate(node, tr)
	}
}

// tieBetter orders candidates that arrive at exactly the same time, so the
// surviving event is a function of the candidate set alone, not of the
// order the analysis happened to generate them in. Incremental re-analysis
// replays only part of the propagation order; without a total order on
// ties its results could differ from a from-scratch run by provenance or
// slope while both are "correct". Prefer the more pessimistic slope, then
// the smallest predecessor.
func tieBetter(cand, cur Event) bool {
	if cand.Slope != cur.Slope {
		return cand.Slope > cur.Slope
	}
	if cand.FromNode != cur.FromNode {
		return cand.FromNode < cur.FromNode
	}
	return cand.FromTr < cur.FromTr
}

// improve records a candidate event if it is later than the current one
// (with a deterministic tie-break at equal times), and queues the node for
// propagation. Returns whether it improved.
func (a *Analyzer) improve(node int, tr tech.Transition, ev Event) bool {
	cur := &a.events[node][tr]
	if cur.Valid {
		if ev.T < cur.T {
			return false
		}
		if ev.T == cur.T && !tieBetter(ev, *cur) {
			return false
		}
	}
	if a.cnet.IsRail[node] {
		return false
	}
	// Static pruning: a node pinned at a definite value cannot complete
	// a transition to the opposite value... unless that value came from
	// a precharge assumption (it is exactly what evaluation discharges).
	if !a.Opts.NoStaticPruning {
		sv := a.static[node]
		want := switchsim.V1
		if tr == tech.Fall {
			want = switchsim.V0
		}
		if sv != switchsim.VX && sv != want && !a.cnet.Precharged[node] {
			return false
		}
	}
	// History: a superseded event that already propagated may still matter
	// downstream — a steeper slope can yield a later consequence than the
	// final (later, shallower) event does, and on a guarded feedback-loop
	// node the superseding event may never propagate at all (the guard cuts
	// the spin off), leaving the superseded one as the last influence the
	// rest of the chip actually saw. Record every propagated-superseded
	// event, unpruned (see nodeHist), so an incremental re-analysis replays
	// exactly the stream a full run propagated.
	if cur.Valid {
		h := &a.hist[node][tr]
		if h.propagated {
			a.appendHist(h, cur.T, cur.Slope)
		}
		h.propagated = false
	}
	// An equal-time improvement (slope/provenance tie-break) can reuse a
	// live queue entry: the entry carries only (t, node, tr) and the event
	// payload is read from a.events at pop time, so a duplicate push would
	// just be skipped as stale. Everything else pushes: the queue tolerates
	// stale entries, and a new arrival time needs its own priority.
	samePriority := cur.Valid && ev.T == cur.T && a.queued[node][tr]
	*cur = ev
	if !samePriority {
		a.queued[node][tr] = true
		a.queue.Push(sched.Item{T: ev.T, Node: int32(node), Tr: uint8(tr)})
	}
	return true
}

// propagate fans the node's current event out to its consequences.
func (a *Analyzer) propagate(node int, tr tech.Transition) {
	a.propagateEvent(node, tr, a.events[node][tr])
}

// propagateEvent fans an explicit event out to its consequences. The event
// is usually the node's current arrival (propagate), but incremental replay
// passes historical ones: superseded events whose steeper slopes a full run
// propagated before they were overwritten.
func (a *Analyzer) propagateEvent(node int, tr tech.Transition, ev Event) {
	if a.loopBreak[node] {
		return // user directive: record the arrival, cut the fanout
	}
	if !ev.Valid {
		return
	}
	if a.hierSkipNode != nil && node < len(a.hierSkipNode) && a.hierSkipNode[node] {
		return // stamped member interior: timing arrives by stamping
	}

	// 1. Gate consequences, via the database's compiled consequence lists:
	// a turn-on evaluates every stage through the device (both target
	// transitions); a turn-off releases every node channel-connected to the
	// device — which may now drift toward its remaining drivers (the NAND
	// output released by a mid-stack input sits several hops from the
	// device itself) — with paths through the off device already filtered
	// out. The lists preserve the nested enumeration order (through: Rise
	// then Fall; release: group order, Rise before Fall per member), so the
	// candidate sequence improve sees is unchanged.
	cn := a.cnet
	for _, ref := range cn.Gates(node) {
		ti, on1 := netlist.UnpackGateRef(ref)
		if a.hierSkipTrans != nil && int(ti) < len(a.hierSkipTrans) && a.hierSkipTrans[ti] {
			continue // stamped member device
		}
		turnsOn := (tr == tech.Rise) == on1
		var stages []*stage.Stage
		var trunc bool
		if turnsOn {
			stages, trunc = a.db.TurnOnIdx(ti)
		} else {
			stages, trunc = a.db.TurnOffIdx(ti)
		}
		a.Truncated = a.Truncated || trunc
		for _, st := range stages {
			a.applyStage(st, node, tr, ev)
		}
	}

	// 2. Channel consequences: an externally seeded input's own level
	// change rides through already-conducting pass devices. Internal
	// nodes do NOT re-propagate through the channel graph here — the
	// stages that produced their events already targeted every node of
	// the driven group, and re-propagating would bounce arrivals back
	// and forth across channel-connected pairs forever.
	if cn.IsInput[node] && cn.HasTerms[node] {
		stages, trunc := a.db.From(a.Net.Nodes[node], tr)
		a.Truncated = a.Truncated || trunc
		for _, st := range stages {
			a.applyStage(st, node, tr, ev)
		}
	}
}

// StageDB returns the stage database this analysis used (available after
// Run). Hand it to Options.DB of a later analyzer over the same network
// and sensitization — e.g. the same circuit under a different delay model
// — to skip re-enumerating every stage. The database is safe to share
// across concurrent analyzers.
func (a *Analyzer) StageDB() *stage.DB { return a.db }

// stageStamp encodes everything stage enumeration depends on: the static
// sensitization values and the enumeration bounds. Two analyses with equal
// stamps over the same network enumerate identical stages, so they may
// share one stage database.
func (a *Analyzer) stageStamp() string {
	opt := a.Opts.Stage.Fill()
	var b strings.Builder
	fmt.Fprintf(&b, "d%d|p%d|", opt.MaxDepth, opt.MaxPaths)
	if a.Opts.NoStaticPruning || a.static == nil {
		b.WriteString("worst")
	} else {
		for _, v := range a.static {
			b.WriteByte('0' + byte(v))
		}
	}
	return b.String()
}

// applyStage evaluates one stage against the triggering event and records
// the resulting arrival at the stage target.
func (a *Analyzer) applyStage(st *stage.Stage, fromNode int, fromTr tech.Transition, ev Event) {
	// Source validity: an input-fed stage needs the source to plausibly
	// hold the driving value; rails were filtered by the enumerator.
	if a.hierSkipNode != nil {
		if t := st.Target.Index; t < len(a.hierSkipNode) && a.hierSkipNode[t] {
			return // stamped member interior: boundary fan-in is replayed by the representative
		}
	}
	if si := st.SourceInputIndex(); si >= 0 && !a.Opts.NoStaticPruning {
		sv := a.static[si]
		want := switchsim.V1
		if st.Transition == tech.Fall {
			want = switchsim.V0
		}
		if sv != switchsim.VX && sv != want {
			return
		}
	}
	a.stageEv++
	r := a.Model.Evaluate(a.Net, st, ev.Slope)
	if math.IsNaN(r.Delay) || r.Delay < 0 {
		return
	}
	a.improve(st.Target.Index, st.Transition, Event{
		T:        ev.T + r.Delay,
		Slope:    r.Slope,
		Valid:    true,
		FromNode: fromNode,
		FromTr:   fromTr,
		Via:      st,
	})
}

// Hop is one step of a traced critical path.
type Hop struct {
	Node  *netlist.Node
	Tr    tech.Transition
	Event Event
}

// Path is a traced critical path, listed from the seeding input to the
// endpoint.
type Path struct {
	Hops []Hop
}

// End returns the endpoint hop.
func (p *Path) End() Hop { return p.Hops[len(p.Hops)-1] }

// Trace reconstructs the worst-case path ending at (n, tr), or nil if the
// node has no arrival.
func (a *Analyzer) Trace(n *netlist.Node, tr tech.Transition) *Path {
	ev := a.Arrival(n, tr)
	if !ev.Valid {
		return nil
	}
	var rev []Hop
	node, t := n.Index, tr
	seen := make(map[qkey]bool)
	for {
		k := qkey{node, t}
		if seen[k] {
			// Provenance cycle (possible when the feedback guard fired
			// mid-analysis): truncate the trace here.
			break
		}
		seen[k] = true
		e := a.eventAt(node, t)
		rev = append(rev, Hop{a.Net.Nodes[node], t, e})
		if e.FromNode < 0 {
			break
		}
		node, t = e.FromNode, e.FromTr
	}
	p := &Path{Hops: make([]Hop, len(rev))}
	for i, h := range rev {
		p.Hops[len(rev)-1-i] = h
	}
	return p
}

// CriticalPathsThrough returns the critical paths (as CriticalPaths) that
// pass through the given node — Crystal's "why is this net late" query.
func (a *Analyzer) CriticalPathsThrough(n *netlist.Node, k int) []*Path {
	all := a.CriticalPaths(0)
	var out []*Path
	for _, p := range all {
		for _, h := range p.Hops {
			if h.Node == n {
				out = append(out, p)
				break
			}
		}
		if k > 0 && len(out) >= k {
			break
		}
	}
	return out
}

// CriticalPaths returns the k latest-arriving endpoint events, traced.
// Endpoints are the watched outputs if any are marked, otherwise every
// non-rail node.
func (a *Analyzer) CriticalPaths(k int) []*Path {
	var ends []*netlist.Node
	if outs := a.Net.Outputs(); len(outs) > 0 {
		ends = outs
	} else {
		for _, n := range a.Net.Nodes {
			if !n.IsRail() && n.Kind != netlist.KindInput {
				ends = append(ends, n)
			}
		}
	}
	type cand struct {
		n  *netlist.Node
		tr tech.Transition
		t  float64
	}
	var cs []cand
	for _, n := range ends {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			if ev := a.Arrival(n, tr); ev.Valid {
				cs = append(cs, cand{n, tr, ev.T})
			}
		}
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].t != cs[j].t {
			return cs[i].t > cs[j].t
		}
		if cs[i].n.Name != cs[j].n.Name {
			return cs[i].n.Name < cs[j].n.Name
		}
		return cs[i].tr < cs[j].tr
	})
	if k > 0 && len(cs) > k {
		cs = cs[:k]
	}
	var out []*Path
	for _, c := range cs {
		if p := a.Trace(c.n, c.tr); p != nil {
			out = append(out, p)
		}
	}
	return out
}
