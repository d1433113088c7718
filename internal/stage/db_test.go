package stage

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// stageKey is a structural fingerprint for comparing stages produced by
// independent enumerations (pointer identity cannot hold across them).
func stageKey(st *Stage) string {
	s := fmt.Sprintf("%s>%s/%v:", st.Source.Name, st.Target.Name, st.Transition)
	for _, e := range st.Path {
		s += e.Trans.Gate.Name + ","
	}
	return s
}

func sameStages(a, b []*Stage) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if stageKey(a[i]) != stageKey(b[i]) {
			return false
		}
	}
	return true
}

// passNet builds a two-transistor pass chain driven by an inverter, rich
// enough to exercise Through/Release/From/Group.
func passNet() (*netlist.Network, *netlist.Node, *netlist.Node) {
	p := tech.NMOS4()
	nw := netlist.New("pass", p)
	in, mid, out := nw.Node("in"), nw.Node("mid"), nw.Node("out")
	g1, g2 := nw.Node("g1"), nw.Node("g2")
	nw.MarkInput(in)
	nw.MarkInput(g1)
	nw.MarkInput(g2)
	nw.AddTrans(tech.NEnh, in, mid, nw.GND(), 0, 0)
	nw.AddTrans(tech.NDep, mid, nw.Vdd(), mid, 0, 4*p.MinL)
	nw.AddTrans(tech.NEnh, g1, mid, out, 0, 0)
	nw.AddTrans(tech.NEnh, g2, out, nw.GND(), 0, 0)
	return nw, in, out
}

// TestDBMatchesDirectEnumeration pins the database to the plain package
// functions: every accessor must return exactly what Through/ToNode/FromNode
// return for the same key, and cached calls must return the same slice.
func TestDBMatchesDirectEnumeration(t *testing.T) {
	nw, in, out := passNet()
	db := NewDB(nw, Options{})
	for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
		for _, tx := range nw.Trans {
			got, trunc := db.Through(tx, tr)
			want := Through(nw, tx, tr, Options{})
			if trunc != want.Truncated || !sameStages(got, want.Stages) {
				t.Errorf("Through(%s,%v): db disagrees with direct enumeration", tx.Gate.Name, tr)
			}
		}
		for _, n := range []*netlist.Node{in, out, nw.Lookup("mid")} {
			got, trunc := db.Release(n, tr)
			want := ToNode(nw, n, tr, Options{})
			if trunc != want.Truncated || !sameStages(got, want.Stages) {
				t.Errorf("Release(%s,%v): db disagrees with direct enumeration", n.Name, tr)
			}
			gotF, truncF := db.From(n, tr)
			wantF := FromNode(nw, n, tr, Options{})
			if truncF != wantF.Truncated || !sameStages(gotF, wantF.Stages) {
				t.Errorf("From(%s,%v): db disagrees with direct enumeration", n.Name, tr)
			}
		}
	}
	// Cached: the second call must hand back the identical slice, not a
	// re-enumeration.
	first, _ := db.Release(out, tech.Fall)
	second, _ := db.Release(out, tech.Fall)
	if len(first) > 0 && &first[0] != &second[0] {
		t.Error("Release re-enumerated a cached entry")
	}
}

// TestDBCompiledConsequenceLists pins the compiled TurnOn/TurnOff lists to
// the reference nested enumeration the event loop used to perform inline:
// turn-on is Through(t, Rise) then Through(t, Fall); turn-off walks the
// released group in order, Rise before Fall per member, with paths through
// the device itself filtered out. The lists exist so the drain does one
// slice walk per gate event — but the order of candidates (which fixes
// tie-breaking and therefore provenance) must be exactly the reference's.
func TestDBCompiledConsequenceLists(t *testing.T) {
	nw, _, _ := passNet()
	db := NewDB(nw, Options{})
	for _, tx := range nw.Trans {
		gotOn, truncOn := db.TurnOn(tx)
		rise, tr1 := db.Through(tx, tech.Rise)
		fall, tr2 := db.Through(tx, tech.Fall)
		wantOn := append(append([]*Stage{}, rise...), fall...)
		if truncOn != (tr1 || tr2) || !sameStages(gotOn, wantOn) {
			t.Errorf("TurnOn(%s): compiled list disagrees with Through enumeration", tx.Gate.Name)
		}

		gotOff, _ := db.TurnOff(tx)
		var wantOff []*Stage
		for _, m := range db.Group(tx) {
			for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
				stages, _ := db.Release(m, tr)
				for _, st := range stages {
					if !st.UsesTrans(tx) {
						wantOff = append(wantOff, st)
					}
				}
			}
		}
		if !sameStages(gotOff, wantOff) {
			t.Errorf("TurnOff(%s): compiled list disagrees with group/Release enumeration", tx.Gate.Name)
		}
		for _, st := range gotOff {
			if st.UsesTrans(tx) {
				t.Errorf("TurnOff(%s): list contains a path through the off device", tx.Gate.Name)
			}
		}
	}
	// Cached: repeated calls hand back the identical slices.
	first, _ := db.TurnOffIdx(0)
	second, _ := db.TurnOffIdx(0)
	if len(first) > 0 && &first[0] != &second[0] {
		t.Error("TurnOffIdx re-built a cached list")
	}
}

func TestDBGroup(t *testing.T) {
	nw, _, out := passNet()
	db := NewDB(nw, Options{})
	var pass *netlist.Trans
	for _, tx := range nw.Trans {
		if tx.Gate.Name == "g1" {
			pass = tx
		}
	}
	g := db.Group(pass)
	found := map[string]bool{}
	for _, n := range g {
		found[n.Name] = true
	}
	// Both channel terminals are non-source and must be in the group; the
	// rails must never be.
	if !found["mid"] || !found[out.Name] {
		t.Errorf("group of pass gate = %v, want mid and out", found)
	}
	for _, n := range g {
		if n.IsSource() {
			t.Errorf("group contains source node %s", n.Name)
		}
	}
}

// TestDBConcurrentAccess hammers every accessor from several goroutines;
// meaningful under -race, where it proves the once-per-entry construction
// publishes safely.
func TestDBConcurrentAccess(t *testing.T) {
	nw, in, out := passNet()
	db := NewDB(nw, Options{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
				db.Release(out, tr)
				db.From(in, tr)
				for _, tx := range nw.Trans {
					db.Through(tx, tr)
					db.Group(tx)
				}
			}
		}()
	}
	wg.Wait()
}

// TestDBPrewarm checks prewarming builds the same entries lazy access
// would (same slices afterwards — Prewarm must not rebuild).
func TestDBPrewarm(t *testing.T) {
	nw, _, out := passNet()
	db := NewDB(nw, Options{})
	db.Prewarm(4)
	warm, _ := db.Release(out, tech.Fall)
	want := ToNode(nw, out, tech.Fall, Options{})
	if !sameStages(warm, want.Stages) {
		t.Error("prewarmed Release disagrees with direct enumeration")
	}
}

// TestDBPrewarmFanoutBounded: the worker count is client input (crystald
// passes a request's workers field through), so Prewarm(1<<20) must build
// on at most GOMAXPROCS goroutines — and the database it builds must be
// the one Prewarm(1) builds, entry for entry.
func TestDBPrewarmFanoutBounded(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, units, want int }{
		{1 << 20, 1 << 30, procs},
		{0, 1 << 30, procs},
		{-3, 1 << 30, procs},
		{1, 1 << 30, 1},
		{1 << 20, 1, 1},
		{1 << 20, 0, 1},
	} {
		if got := prewarmFanout(tc.workers, tc.units); got != tc.want {
			t.Errorf("prewarmFanout(%d, %d) = %d, want %d", tc.workers, tc.units, got, tc.want)
		}
	}

	nw, err := gen.ALU(tech.NMOS4(), 4)
	if err != nil {
		t.Fatal(err)
	}
	serial, wide := NewDB(nw, Options{}), NewDB(nw, Options{})
	serial.Prewarm(1)
	wide.Prewarm(1 << 20)
	for i, tx := range nw.Trans {
		if tx.AlwaysOn() {
			continue
		}
		a, _ := serial.TurnOnIdx(i)
		b, _ := wide.TurnOnIdx(i)
		c, _ := serial.TurnOffIdx(i)
		d, _ := wide.TurnOffIdx(i)
		if !sameStages(a, b) || !sameStages(c, d) {
			t.Fatalf("transistor %d: consequence lists differ between Prewarm(1) and Prewarm(1<<20)", i)
		}
	}
	for _, n := range nw.Inputs() {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			a, _ := serial.From(n, tr)
			b, _ := wide.From(n, tr)
			if !sameStages(a, b) {
				t.Fatalf("input %s/%v: fan-out stages differ", n.Name, tr)
			}
		}
	}
}
