// The stage database: a precomputed, shareable index of every stage the
// analyzer can ask for over one (network, sensitization) pair. Stage
// enumeration is static during an analysis — a trigger's stages never
// change — so the enumeration results are memoized here, slice-indexed by
// (element index, transition) instead of hashed, and built at most once
// per key under a sync.Once so any number of concurrent analyses can
// share one database without rebuilding or locking on the hot path.
//
// Databases are generational: an edit epoch never resets entries in
// place. Derive builds the next generation over the edited network,
// sharing the entry objects of untouched channel-connected groups and
// allocating fresh ones only for the dirty indexes, so analyzers still
// reading the previous generation — whose network is never mutated —
// always finish on a consistent snapshot.
package stage

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// DB is the shared stage database for one network under one sensitization
// oracle. Entries are built lazily on first access and are immutable
// afterwards; every accessor is safe for concurrent use. A DB built by one
// analysis run can be handed to later runs over the same network with the
// same static sensitization (core checks the Stamp before accepting one).
type DB struct {
	nw  *netlist.Network
	opt Options

	// Stamp identifies the sensitization state the database was built
	// under (the caller encodes static node values and enumeration
	// bounds). Consumers must not share a DB across different stamps.
	Stamp string
	// Epoch counts edit generations: 0 for a fresh database, predecessor
	// epoch + 1 for one built by Derive. Diagnostics only — correctness
	// comes from each generation owning its own immutable network.
	Epoch uint64

	through []*dbEntry    // (trans, transition) → stages through the device
	release []*dbEntry    // (node, transition) → stages driving the node
	from    []*dbEntry    // (node, transition) → stages fanning out of the node
	groups  []*groupEntry // trans → channel-connected group

	// turnOn / turnOff are the compiled consequence lists the event loop
	// consumes: per transistor, the full flat sequence of stages a
	// turn-on (through-stages, both transitions) or a turn-off (release
	// stages of every group member, paths through the device filtered
	// out) triggers, in exactly the order the nested per-entry iteration
	// produces. One slice walk replaces a group walk plus four memoized
	// lookups plus a per-stage membership filter per event. Always
	// rebuilt fresh by Derive (they are cheap concatenations of the
	// underlying — possibly shared — entries).
	turnOn  []*dbEntry // trans → compiled turn-on stages
	turnOff []*dbEntry // trans → compiled turn-off stages

	// capsOnce/caps snapshot NodeCap over the whole (immutable) network on
	// first enumeration, so stage construction — which reads node loading
	// once per path node and once per side branch, across hundreds of
	// thousands of stages — indexes a float array instead of re-walking
	// adjacency lists.
	capsOnce sync.Once
	caps     []float64

	truncated atomic.Bool
}

// dbEntry is one memoized enumeration result.
type dbEntry struct {
	once   sync.Once
	stages []*Stage
	trunc  bool
}

// groupEntry is one memoized channel group.
type groupEntry struct {
	once  sync.Once
	nodes []*netlist.Node
}

// newEntries allocates n entries in one backing array and returns the
// pointer slice the database indexes (pointers, not values, so Derive can
// share individual entries across generations).
func newEntries(n int) []*dbEntry {
	backing := make([]dbEntry, n)
	ptrs := make([]*dbEntry, n)
	for i := range backing {
		ptrs[i] = &backing[i]
	}
	return ptrs
}

func newGroupEntries(n int) []*groupEntry {
	backing := make([]groupEntry, n)
	ptrs := make([]*groupEntry, n)
	for i := range backing {
		ptrs[i] = &backing[i]
	}
	return ptrs
}

// NewDB creates an empty database for the network. opt.Oracle fixes the
// sensitization for every enumeration the database will ever perform.
func NewDB(nw *netlist.Network, opt Options) *DB {
	return &DB{
		nw:      nw,
		opt:     opt.fill(),
		through: newEntries(2 * len(nw.Trans)),
		release: newEntries(2 * len(nw.Nodes)),
		from:    newEntries(2 * len(nw.Nodes)),
		groups:  newGroupEntries(len(nw.Trans)),
		turnOn:  newEntries(len(nw.Trans)),
		turnOff: newEntries(len(nw.Trans)),
	}
}

// Network returns the network the database indexes.
func (db *DB) Network() *netlist.Network { return db.nw }

// Truncated reports whether any enumeration performed so far hit the
// MaxPaths/MaxDepth caps. With a shared database this is cumulative over
// every analysis that touched it.
func (db *DB) Truncated() bool { return db.truncated.Load() }

// enumOpt returns the enumeration options with the node-capacitance
// snapshot installed (built on first use — the network is immutable for
// the database's lifetime, so one sweep serves every enumeration).
func (db *DB) enumOpt() Options {
	db.capsOnce.Do(func() {
		caps := make([]float64, len(db.nw.Nodes))
		for i, n := range db.nw.Nodes {
			caps[i] = db.nw.NodeCap(n)
		}
		db.caps = caps
	})
	o := db.opt
	o.caps = db.caps
	return o
}

// Through returns the stages created when transistor t becomes conducting,
// targeting transition tr, plus whether that enumeration was truncated.
func (db *DB) Through(t *netlist.Trans, tr tech.Transition) ([]*Stage, bool) {
	e := db.through[2*t.Index+int(tr)]
	e.once.Do(func() {
		res := Through(db.nw, t, tr, db.enumOpt())
		e.stages, e.trunc = res.Stages, res.Truncated
		if res.Truncated {
			db.truncated.Store(true)
		}
	})
	return e.stages, e.trunc
}

// Release returns the stages that could drive node n with transition tr
// (the paths a released node may move along), plus truncation.
func (db *DB) Release(n *netlist.Node, tr tech.Transition) ([]*Stage, bool) {
	e := db.release[2*n.Index+int(tr)]
	e.once.Do(func() {
		res := ToNode(db.nw, n, tr, db.enumOpt())
		e.stages, e.trunc = res.Stages, res.Truncated
		if res.Truncated {
			db.truncated.Store(true)
		}
	})
	return e.stages, e.trunc
}

// From returns the stages created when node n itself transitions (an input
// event riding through conducting pass devices), plus truncation.
func (db *DB) From(n *netlist.Node, tr tech.Transition) ([]*Stage, bool) {
	e := db.from[2*n.Index+int(tr)]
	e.once.Do(func() {
		res := FromNode(db.nw, n, tr, db.enumOpt())
		e.stages, e.trunc = res.Stages, res.Truncated
		if res.Truncated {
			db.truncated.Store(true)
		}
	})
	return e.stages, e.trunc
}

// TurnOn returns the compiled turn-on consequence list of transistor t:
// the stages created when t becomes conducting, for both target
// transitions (Rise stages first), in the order the underlying Through
// entries enumerate them, plus cumulative truncation.
func (db *DB) TurnOn(t *netlist.Trans) ([]*Stage, bool) {
	return db.TurnOnIdx(t.Index)
}

// TurnOnIdx is TurnOn by transistor index (the compiled-network hot path).
func (db *DB) TurnOnIdx(ti int) ([]*Stage, bool) {
	e := db.turnOn[ti]
	e.once.Do(func() {
		t := db.nw.Trans[ti]
		rise, tr1 := db.Through(t, tech.Rise)
		fall, tr2 := db.Through(t, tech.Fall)
		e.trunc = tr1 || tr2
		if len(fall) == 0 {
			e.stages = rise // share the underlying entry's slice
		} else if len(rise) == 0 {
			e.stages = fall
		} else {
			e.stages = make([]*Stage, 0, len(rise)+len(fall))
			e.stages = append(e.stages, rise...)
			e.stages = append(e.stages, fall...)
		}
	})
	return e.stages, e.trunc
}

// TurnOff returns the compiled turn-off consequence list of transistor t:
// for every node the turn-off releases (the channel group), the stages
// that could still drive it — paths through t itself filtered out — in
// group order, Rise before Fall per member, plus cumulative truncation.
func (db *DB) TurnOff(t *netlist.Trans) ([]*Stage, bool) {
	return db.TurnOffIdx(t.Index)
}

// TurnOffIdx is TurnOff by transistor index.
func (db *DB) TurnOffIdx(ti int) ([]*Stage, bool) {
	e := db.turnOff[ti]
	e.once.Do(func() {
		t := db.nw.Trans[ti]
		group := db.Group(t)
		// Count first, then fill exactly: these lists are the largest
		// compiled structure in the database, and append-doubling across
		// tens of thousands of transistors wastes real memory.
		n := 0
		for _, m := range group {
			for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
				stages, trunc := db.Release(m, tr)
				e.trunc = e.trunc || trunc
				for _, st := range stages {
					if !st.UsesTrans(t) {
						n++
					}
				}
			}
		}
		if n == 0 {
			return
		}
		out := make([]*Stage, 0, n)
		for _, m := range group {
			for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
				stages, _ := db.Release(m, tr)
				for _, st := range stages {
					if st.UsesTrans(t) {
						continue // that path died with the device
					}
					out = append(out, st)
				}
			}
		}
		e.stages = out
	})
	return e.stages, e.trunc
}

// Group returns the non-source nodes channel-connected to either terminal
// of t through possibly-conducting transistors (t itself excluded),
// without expanding through strong sources — the set of nodes a turn-off
// of t releases.
func (db *DB) Group(t *netlist.Trans) []*netlist.Node {
	e := db.groups[t.Index]
	e.once.Do(func() {
		e.nodes = channelGroup(db.nw, t, db.opt.Oracle)
	})
	return e.nodes
}

// Derive builds the next-generation database over the edited network nw
// (a distinct object from this database's network — edits never mutate a
// generation an analysis has seen). Entries of untouched indexes are
// shared with this database: a shared entry already built keeps its
// stages; one still unbuilt is enumerated later by whichever generation
// first asks, and because the clean channel-connected groups are
// structurally identical in both networks the resulting stage values are
// the same either way. Dirty indexes get fresh, empty entries.
//
//   - opt supplies the new generation's sensitization oracle (the caller
//     re-settles statics after the edit) and must keep the same
//     enumeration bounds.
//   - dirtyTrans / dirtyNode are indexed by the NEW network's indexes;
//     true means the entry must be re-enumerated.
//   - oldTrans maps new transistor indexes to this generation's indexes
//     (-1 for transistors that did not exist before). Node indexes are
//     stable across edits, so nodes need no map — new nodes are simply
//     beyond the old range.
//
// The caller sets Stamp. Concurrent readers of the receiver are
// unaffected: Derive only copies entry pointers.
func (db *DB) Derive(nw *netlist.Network, opt Options, dirtyTrans, dirtyNode []bool, oldTrans []int) *DB {
	opt = opt.fill()
	next := &DB{
		nw:      nw,
		opt:     opt,
		Epoch:   db.Epoch + 1,
		through: newEntries(2 * len(nw.Trans)),
		release: newEntries(2 * len(nw.Nodes)),
		from:    newEntries(2 * len(nw.Nodes)),
		groups:  newGroupEntries(len(nw.Trans)),
		turnOn:  newEntries(len(nw.Trans)),
		turnOff: newEntries(len(nw.Trans)),
	}
	// Conservative: a truncated enumeration in a shared entry stays
	// truncated in the new generation.
	if db.truncated.Load() {
		next.truncated.Store(true)
	}
	for j := range nw.Trans {
		old := -1
		if j < len(oldTrans) {
			old = oldTrans[j]
		}
		if old < 0 || (j < len(dirtyTrans) && dirtyTrans[j]) {
			continue // keep the fresh entries
		}
		next.through[2*j] = db.through[2*old]
		next.through[2*j+1] = db.through[2*old+1]
		next.groups[j] = db.groups[old]
		// The compiled turn-on list depends only on the two through
		// entries, so it shares under the same condition. The turn-off
		// list also depends on the release entries of every group member,
		// whose dirtiness this loop cannot see — it is rebuilt lazily in
		// the new generation (a cheap concatenation of entries that are
		// themselves shared when clean).
		next.turnOn[j] = db.turnOn[old]
	}
	oldNodes := len(db.nw.Nodes)
	for j := range nw.Nodes {
		if j >= oldNodes || (j < len(dirtyNode) && dirtyNode[j]) {
			continue
		}
		next.release[2*j] = db.release[2*j]
		next.release[2*j+1] = db.release[2*j+1]
		next.from[2*j] = db.from[2*j]
		next.from[2*j+1] = db.from[2*j+1]
	}
	return next
}

// seenPool recycles the visited-marks scratch of channelGroup; on a
// chip-scale network a fresh per-call slice is tens of kilobytes times
// tens of thousands of groups, all garbage.
var seenPool sync.Pool

// channelGroup walks the channel graph from t's terminals.
func channelGroup(nw *netlist.Network, t *netlist.Trans, oracle Oracle) []*netlist.Node {
	var seen []bool
	if v := seenPool.Get(); v != nil {
		seen = v.([]bool)
	}
	if len(seen) < len(nw.Nodes) {
		seen = make([]bool, len(nw.Nodes))
	}
	var out []*netlist.Node
	var q []*netlist.Node
	defer func() {
		// The true marks are exactly the group members: clear those and
		// recycle, far cheaper than zeroing the whole slice.
		for _, n := range out {
			seen[n.Index] = false
		}
		seenPool.Put(seen)
	}()
	for _, m := range []*netlist.Node{t.A, t.B} {
		if m != nil && !m.IsSource() && !seen[m.Index] {
			seen[m.Index] = true
			out = append(out, m)
			q = append(q, m)
		}
	}
	for len(q) > 0 {
		n := q[0]
		q = q[1:]
		for _, tr := range n.Terms {
			if tr == t {
				continue
			}
			if oracle(tr) == Off {
				continue
			}
			o := tr.Other(n)
			if o == nil || seen[o.Index] || o.IsSource() {
				continue
			}
			seen[o.Index] = true
			out = append(out, o)
			q = append(q, o)
		}
	}
	return out
}

// Prewarm eagerly builds every entry an analysis can touch, fanning the
// enumeration out over the given number of workers (0 selects GOMAXPROCS;
// the builds are CPU-bound, so larger counts are capped at GOMAXPROCS).
// The closure matches the analyzer's access pattern: through-stages and
// channel groups for every gated device, release stages for every group
// member, and fan-out stages for every input with channel terminals.
// Prewarming is optional — entries not built here are still built lazily.
func (db *DB) Prewarm(workers int) {
	db.PrewarmMasked(workers, nil, nil)
}

// prewarmFanout resolves Prewarm's worker count for units transistors:
// GOMAXPROCS for a non-positive request, never more than GOMAXPROCS (the
// request may be client input), never more than there are units, and at
// least one.
func prewarmFanout(workers, units int) int {
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || workers > procs {
		workers = procs
	}
	return max(1, min(workers, units))
}

// PrewarmMasked is Prewarm with a skip mask: transistors with
// skipTrans[i] true and inputs with skipNode[idx] true are left unbuilt.
// The hierarchical analyzer passes the devices and member-local inputs of
// stamped instances — their consequence lists are never consulted during
// a stamped drain, and on chip-scale grids they are the bulk of the
// enumeration cost and memory. Skipped entries still build lazily if an
// instance later detaches to flat analysis.
func (db *DB) PrewarmMasked(workers int, skipTrans, skipNode []bool) {
	workers = prewarmFanout(workers, len(db.nw.Trans))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(db.nw.Trans) {
					return
				}
				if skipTrans != nil && skipTrans[i] {
					continue
				}
				t := db.nw.Trans[i]
				if t.AlwaysOn() {
					continue
				}
				db.TurnOnIdx(i)  // builds both Through entries
				db.TurnOffIdx(i) // builds the group and its Release entries
			}
		}()
	}
	wg.Wait()
	for _, n := range db.nw.Inputs() {
		if skipNode != nil && skipNode[n.Index] {
			continue
		}
		if len(n.Terms) > 0 {
			for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
				db.From(n, tr)
			}
		}
	}
}
