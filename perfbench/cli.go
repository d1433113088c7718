package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// chipSpec is the chip a workload analyzes and how its program analyzes
// it.
type chipSpec struct {
	tiles     int  // 1 = chip:32, N = the chip:32,N grid
	workers   int  // drain workers: crystal's default 1, crystald's default 0 (all cores)
	hier      bool // hierarchical analysis on (crystal -hier on)
	instances int  // instances hier must detect (hier only)
}

var (
	e6CLI          = chipSpec{tiles: 1, workers: 1}
	xlHier         = chipSpec{tiles: 4, workers: 1, hier: true, instances: 4}
	daemonDesigner = chipSpec{tiles: 1, workers: 0}
)

const (
	// cliSetupReps is how many cold loads the set-up time is the median of.
	cliSetupReps = 9
	// minExecs is the fewest crystal execs a run measures. An xl-hier
	// exec takes about 8 s, and its wall varies by about 7% from one
	// exec to the next, so a run that stopped at the run length would
	// report the median of only three.
	minExecs = 5
)

// runCLI measures one crystal workload: cold loads for the set-up time,
// then crystal execs from the warm .simx, one at a time, for the run
// length. A traced run replaces the execs with in-process layer passes.
func runCLI(o options, tr *tracer, spec chipSpec) (*result, error) {
	dir, err := inputDir(o.root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := makeChip(dir, spec.tiles)
	if err != nil {
		return nil, err
	}
	res := newResult()
	if tr != nil {
		layerPasses(o, tr, res, in, spec)
		return res, nil
	}

	// Set-up: the cold LoadSimFile a first crystal run pays (parse, Check,
	// .simx write). The last one leaves the warm .simx the execs load.
	var setup []float64
	for i := 0; i < cliSetupReps; i++ {
		if err := os.Remove(in.simx); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		_, lr, err := netlist.LoadSimFile(in.sim, in.sim, tech.NMOS4(), netlist.LoadOptions{Workers: 1, Snapshot: in.simx})
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("cold load: %w", err)
		}
		if lr.Source != netlist.SourceParse {
			return nil, fmt.Errorf("cold load served from %s, want parse", lr.Source)
		}
		setup = append(setup, d.Seconds())
	}
	res.set("setup_s", median(setup), len(setup))

	args := []string{"-sim", in.sim, "-snapshot", in.simx, "-tables", "analytic",
		"-fix", in.fixArg(), "-loopbreak", strings.Join(in.loop, ",")}
	if spec.hier {
		args = append(args, "-hier", "on")
	}
	bin := filepath.Join(o.bin, "crystal")
	var walls, rss []float64
	evalsPerNode := 0.0 // stays 0 if no exec passes
	start := time.Now()
	for !runDone(start, o, res.attempted, minExecs) {
		run, err := execCrystal(bin, args)
		if err == nil {
			var rep report
			if rep, err = parseReport(run.stdout, run.stderr); err == nil {
				err = checkReport(rep, o.expectNs, spec)
			}
			if err == nil {
				epn := float64(rep.evals) / float64(rep.nodes)
				if len(walls) > 0 && epn != evalsPerNode {
					err = fmt.Errorf("stage evaluations per node changed between execs: %v then %v", evalsPerNode, epn)
				}
				evalsPerNode = epn
			}
		}
		res.op(err)
		if err == nil {
			walls = append(walls, run.wall.Seconds())
			rss = append(rss, float64(run.rssKB)/1024)
		}
	}
	elapsed := time.Since(start).Seconds()
	res.set("wall_p50_s", median(walls), len(walls))
	res.set("throughput_ops_s", float64(len(walls))/elapsed, len(walls))
	res.set("peak_rss_mb", median(rss), len(rss))
	res.set("stage_evals_per_node", evalsPerNode, len(walls))
	res.set("ops_ok_frac", float64(res.attempted-res.failed)/float64(res.attempted), res.attempted)
	return res, nil
}

// crystalRun is one finished crystal exec.
type crystalRun struct {
	wall           time.Duration
	rssKB          int64 // child max RSS (rusage, KiB on Linux)
	stdout, stderr string
}

func execCrystal(bin string, args []string) (crystalRun, error) {
	var so, se bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &so, &se
	start := time.Now()
	err := cmd.Run()
	r := crystalRun{wall: time.Since(start), stdout: so.String(), stderr: se.String()}
	if err != nil {
		return r, fmt.Errorf("crystal: %v: %s", err, strings.TrimSpace(r.stderr))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssKB = ru.Maxrss
	}
	return r, nil
}

// report is what the benchmark reads back from a crystal report.
type report struct {
	source     string // netlist source: mmap, snapshot or parse
	nodes      int
	evals      int
	criticalNs float64
	instances  int // -1 when the report has no hier line
}

var (
	reSource = regexp.MustCompile(`netlist source: (\w+)`)
	reSize   = regexp.MustCompile(`(\d+) transistors, (\d+) nodes`)
	reEvals  = regexp.MustCompile(`(\d+) stage evaluations`)
	rePath1  = regexp.MustCompile(`(?m)^path 1: \S+ (?:rise|fall) at ([0-9.]+)ns`)
	reHier   = regexp.MustCompile(`hier: (\d+) instances, (\d+) stamped, (\d+) flat`)
)

func parseReport(stdout, stderr string) (report, error) {
	rep := report{instances: -1}
	m := reSource.FindStringSubmatch(stderr)
	size := reSize.FindStringSubmatch(stdout)
	evals := reEvals.FindStringSubmatch(stdout)
	path := rePath1.FindStringSubmatch(stdout)
	if m == nil || size == nil || evals == nil || path == nil {
		return rep, fmt.Errorf("crystal report is missing the source, size, evaluation count or path 1")
	}
	rep.source = m[1]
	rep.nodes, _ = strconv.Atoi(size[2])
	rep.evals, _ = strconv.Atoi(evals[1])
	rep.criticalNs, _ = strconv.ParseFloat(path[1], 64)
	if h := reHier.FindStringSubmatch(stdout); h != nil {
		rep.instances, _ = strconv.Atoi(h[1])
	}
	return rep, nil
}

// checkReport applies the output checks of a crystal workload: the
// netlist came from the warm snapshot, the critical arrival is the
// reference one (for xl-hier, hier-on equals flat E6), and hier named
// every instance.
func checkReport(rep report, expectNs float64, spec chipSpec) error {
	if rep.source == netlist.SourceParse {
		return fmt.Errorf("crystal parsed the netlist; the warm .simx was not used")
	}
	if err := checkCritical(rep.criticalNs, expectNs); err != nil {
		return err
	}
	if spec.hier && rep.instances != spec.instances {
		return fmt.Errorf("hier reported %d instances, want %d", rep.instances, spec.instances)
	}
	return nil
}

// checkCritical compares a critical arrival in ns with the reference to
// the report's printed precision.
func checkCritical(gotNs, wantNs float64) error {
	if math.Abs(gotNs-wantNs) > 0.0005 {
		return fmt.Errorf("critical arrival %.3f ns, want %.3f ns", gotNs, wantNs)
	}
	return nil
}
