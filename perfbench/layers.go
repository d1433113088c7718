package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// layerSamples collects per-layer measurements across passes.
type layerSamples map[string][]float64

// timed runs f inside a span and records its duration as name+"_ms".
func (s layerSamples) timed(tr *tracer, name, req string, parent int, f func() error) (time.Duration, error) {
	id := tr.begin(name, req, parent)
	start := time.Now()
	err := f()
	d := time.Since(start)
	tr.end(id)
	s[name+"_ms"] = append(s[name+"_ms"], ms(d))
	return d, err
}

// compiled keeps netlist.Compile's result reachable so the call is not
// optimized away.
var compiled *netlist.Compact

// layerPasses runs in-process passes through the layers of one chip,
// calling the same public functions the CLIs and the daemon call, until
// the run length is reached (at least one pass). Timings are medians
// over the passes; counts come from the last pass and repeat exactly.
func layerPasses(o options, tr *tracer, res *result, in *chipInput, spec chipSpec) {
	s := layerSamples{}
	start := time.Now()
	for pass := 0; !runDone(start, o, pass, 1); pass++ {
		err := layerPass(o, tr, fmt.Sprintf("pass%d", pass), in, spec, s)
		res.op(err)
		if err != nil {
			break
		}
	}
	for name, xs := range s {
		res.set(name, median(xs), len(xs))
	}
}

// layerPass is one pass: cold load, warm (mmap) load, compile, settle,
// a cold-DB and a warm-DB analysis, the report and, with hier, a flat
// reference analysis on the same netlist.
func layerPass(o options, tr *tracer, req string, in *chipInput, spec chipSpec, s layerSamples) error {
	p := tech.NMOS4()
	root := tr.begin("bench.layer_pass", req, -1)
	defer tr.end(root)
	runtime.GC()

	snap := in.simx + ".layers"
	if err := os.Remove(snap); err != nil && !os.IsNotExist(err) {
		return err
	}
	lopt := netlist.LoadOptions{Workers: spec.workers, Snapshot: snap}
	var nw *netlist.Network
	var lr netlist.LoadResult
	if _, err := s.timed(tr, "netlist.load_parse", req, root, func() (err error) {
		nw, lr, err = netlist.LoadSimFile(in.sim, in.sim, p, lopt)
		return err
	}); err != nil {
		return err
	}
	if lr.Source != netlist.SourceParse {
		return fmt.Errorf("cold load served from %s, want parse", lr.Source)
	}
	// The mapping of the warm load stays open for the life of the
	// process: node names alias it.
	if _, err := s.timed(tr, "netlist.load_mmap", req, root, func() (err error) {
		nw, lr, err = netlist.LoadSimFile(in.sim, in.sim, p, lopt)
		return err
	}); err != nil {
		return err
	}
	if lr.Source != netlist.SourceMmap {
		return fmt.Errorf("warm load served from %s, want mmap", lr.Source)
	}
	s.timed(tr, "netlist.compile", req, root, func() error {
		compiled = netlist.Compile(nw)
		return nil
	})

	// The sensitization settle exactly as the analyzer's static settle
	// does it: fixed values, settle, seeded inputs at X, settle again.
	sweeps := 0
	if _, err := s.timed(tr, "switchsim.settle", req, root, func() error {
		sim := switchsim.New(nw)
		for name, v := range in.fix {
			if err := sim.SetInput(nw.Lookup(name), switchsim.FromBool(v == "1")); err != nil {
				return err
			}
		}
		sweeps = sim.Settle()
		for _, n := range nw.Inputs() {
			if _, fixed := in.fix[n.Name]; !fixed {
				if err := sim.SetInput(n, switchsim.VX); err != nil {
					return err
				}
			}
		}
		sweeps += sim.Settle()
		return nil
	}); err != nil {
		return err
	}
	s["switchsim.settle_sweeps"] = []float64{float64(sweeps)}

	model := delay.NewSlope(delay.AnalyticTables(p))
	cold, err := newAnalyzer(nw, model, in, spec.workers, spec.hier, nil)
	if err != nil {
		return err
	}
	coldID := tr.begin("core.run_cold", req, root)
	coldStart := time.Now()
	err = cold.Run()
	coldDur := time.Since(coldStart)
	tr.end(coldID)
	if err != nil {
		return err
	}
	coldCrit := criticalNs(cold)
	warm, err := newAnalyzer(nw, model, in, spec.workers, spec.hier, cold)
	if err != nil {
		return err
	}
	warmDur, err := s.timed(tr, "core.run", req, root, warm.Run)
	if err != nil {
		return err
	}
	// The stage-DB build is what the cold run does beyond the warm one.
	tr.child("stage.db_build", coldID, 0, coldDur-warmDur)
	s["stage.db_build_ms"] = append(s["stage.db_build_ms"], ms(coldDur-warmDur))
	if _, err := s.timed(tr, "core.report", req, root, func() error { return warm.WriteReport(io.Discard, 5) }); err != nil {
		return err
	}
	crit := criticalNs(warm)
	if err := checkCritical(crit, o.expectNs); err != nil {
		return err
	}
	if coldCrit != crit {
		return fmt.Errorf("cold-DB critical %v ns differs from warm-DB %v ns", coldCrit, crit)
	}
	s["core.stage_evals"] = []float64{float64(warm.StagesEvaluated())}
	s["core.unbounded_nodes"] = []float64{float64(len(warm.Unbounded))}

	hs := warm.HierStats()
	s["hier.instances"] = []float64{float64(hs.Instances)}
	s["hier.stamped"] = []float64{float64(hs.Stamped)}
	s["hier.flat"] = []float64{float64(hs.Flat)}
	s["hier.eval_ratio"] = []float64{0}
	if spec.hier {
		if hs.Instances != spec.instances {
			return fmt.Errorf("hier detected %d instances, want %d", hs.Instances, spec.instances)
		}
		flat, err := newAnalyzer(nw, model, in, spec.workers, false, warm)
		if err != nil {
			return err
		}
		id := tr.begin("core.run_flat", req, root)
		err = flat.Run()
		tr.end(id)
		if err != nil {
			return err
		}
		if c := criticalNs(flat); c != crit {
			return fmt.Errorf("hier critical %v ns differs from flat %v ns", crit, c)
		}
		s["hier.eval_ratio"] = []float64{float64(warm.StagesEvaluated()) / float64(flat.StagesEvaluated())}
	}
	return nil
}

// newAnalyzer builds an analyzer the way crystal and crystald do: the
// chip's loop-breaks and fixed nodes, every other input rising and
// falling at t=0 with a 1 ns slope. A non-nil db lends its stage DB.
func newAnalyzer(nw *netlist.Network, m delay.Model, in *chipInput, workers int, hier bool, db *core.Analyzer) (*core.Analyzer, error) {
	opts := core.Options{Workers: workers, Hier: hier}
	if db != nil {
		opts.DB = db.StageDB()
	}
	for _, name := range in.loop {
		n := nw.Lookup(name)
		if n == nil {
			return nil, fmt.Errorf("loop-break: no node %q", name)
		}
		opts.LoopBreak = append(opts.LoopBreak, n)
	}
	a := core.New(nw, m, opts)
	for name, v := range in.fix {
		n := nw.Lookup(name)
		if n == nil {
			return nil, fmt.Errorf("fix: no node %q", name)
		}
		a.SetFixed(n, switchsim.FromBool(v == "1"))
	}
	for _, n := range nw.Inputs() {
		if _, fixed := in.fix[n.Name]; fixed {
			continue
		}
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			if err := a.SetInputEvent(n, tr, 0, 1e-9); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

// criticalNs is the worst arrival over the analyzer's endpoints, in ns.
func criticalNs(a *core.Analyzer) float64 {
	paths := a.CriticalPaths(1)
	if len(paths) == 0 {
		return 0
	}
	return paths[0].End().Event.T * 1e9
}
